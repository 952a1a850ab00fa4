// Shared helpers for the paper-reproduction benchmark harnesses.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace gaa::bench {

/// The §7.1 system-wide policy (narrow composition, lockdown at high).
inline const char* LockdownSystemPolicy() {
  return R"(
eacl_mode 1
neg_access_right * *
pre_cond_system_threat_level local =high
)";
}

/// The §7.1 local policy plus a normal-operation entry.
inline const char* LockdownLocalPolicy() {
  return R"(
pos_access_right apache *
pre_cond_system_threat_level local >low
pre_cond_accessid USER apache *
pos_access_right apache *
pre_cond_system_threat_level local =low
)";
}

/// The §7.2 local policy (signatures, notify, blacklist update, fallthrough
/// grant) — the configuration the paper measured (§8: "we used the
/// system-wide and local policy files shown in Sections 7.1 and 7.2").
inline const char* IntrusionLocalPolicy() {
  return R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)";
}

/// The §7.2 system-wide policy (BadGuys blacklist).
inline const char* IntrusionSystemPolicy() {
  return R"(
eacl_mode 1
neg_access_right * *
pre_cond_accessid GROUP local BadGuys
)";
}

struct Stats {
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

inline Stats Summarize(std::vector<double> samples_ms) {
  Stats s;
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  s.mean_ms = std::accumulate(samples_ms.begin(), samples_ms.end(), 0.0) /
              static_cast<double>(samples_ms.size());
  s.p50_ms = samples_ms[samples_ms.size() / 2];
  s.p95_ms = samples_ms[samples_ms.size() * 95 / 100];
  s.min_ms = samples_ms.front();
  s.max_ms = samples_ms.back();
  return s;
}

/// Reports of `kind` that `server`'s IDS counted in
/// `ids_reports_total{kind=...}`; reads the registry's list, so it creates
/// no series.
inline std::size_t IdsReportCount(web::GaaWebServer& server,
                                  core::ReportKind kind) {
  const std::string labels =
      std::string("kind=\"") + core::ReportKindName(kind) + "\"";
  for (const auto& e : server.telemetry().registry().List()) {
    if (e.name == "ids_reports_total" && e.labels == labels) {
      return static_cast<std::size_t>(e.counter->Value());
    }
  }
  return 0;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Value of the shared `--json <path>` flag (empty = no JSON output).
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

/// Machine-readable bench results for CI artifacts.  Every E/A-series
/// bench emits the same envelope so downstream tooling can consume any
/// BENCH_*.json without per-bench parsing:
///
///   { "bench":   "<harness name>",
///     "host":    { "nproc": <online cores>, "compiler": "<__VERSION__>",
///                  "build_type": "<CMAKE_BUILD_TYPE>" },
///     "params":  { <knobs the run was invoked with> },
///     "metrics": { "<section>": { <numeric results> }, ... } }
///
/// Sections and keys preserve insertion order so artifacts diff cleanly
/// run-to-run.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name = "")
      : bench_name_(std::move(bench_name)) {}

  /// Record one invocation knob (request counts, rates, flags) under
  /// "params" — the provenance half of the envelope.
  void SetParam(const std::string& key, double value) {
    params_.emplace_back(key, value);
  }

  void Set(const std::string& section, const std::string& key, double value) {
    SectionRef(section).emplace_back(key, value);
  }

  void SetStats(const std::string& section, const Stats& stats) {
    Set(section, "mean_ms", stats.mean_ms);
    Set(section, "p50_ms", stats.p50_ms);
    Set(section, "p95_ms", stats.p95_ms);
    Set(section, "min_ms", stats.min_ms);
    Set(section, "max_ms", stats.max_ms);
  }

  /// Latency percentiles straight from a telemetry histogram — the same
  /// numbers /__status exposes, so CI artifacts and scrapes agree.  The
  /// p999 and max come from the histogram's tracked maximum, so the tail
  /// is not truncated to the last finite bucket bound.
  void SetHistogram(const std::string& section,
                    const telemetry::Histogram::Snapshot& snap) {
    Set(section, "count", static_cast<double>(snap.count));
    Set(section, "mean_us", snap.Mean());
    Set(section, "p50_us", snap.Quantile(0.50));
    Set(section, "p90_us", snap.Quantile(0.90));
    Set(section, "p99_us", snap.Quantile(0.99));
    Set(section, "p999_us", snap.Quantile(0.999));
    Set(section, "max_us", static_cast<double>(snap.max));
  }

  /// Write to `path`; a no-op when the path is empty (flag not given).
  bool WriteFile(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench_name_.c_str());
    std::fprintf(f,
                 "  \"host\": {\"nproc\": %ld, \"compiler\": \"%s\", "
                 "\"build_type\": \"%s\"},\n",
                 ::sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
                 GAA_BENCH_BUILD_TYPE);
    std::fprintf(f, "  \"params\": {");
    for (std::size_t i = 0; i < params_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                   params_[i].first.c_str(), params_[i].second);
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"metrics\": {\n");
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      std::fprintf(f, "    \"%s\": {", sections_[s].first.c_str());
      const auto& entries = sections_[s].second;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                     entries[i].first.c_str(), entries[i].second);
      }
      std::fprintf(f, "}%s\n", s + 1 < sections_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  using Section = std::vector<std::pair<std::string, double>>;

  Section& SectionRef(const std::string& name) {
    for (auto& [existing, entries] : sections_) {
      if (existing == name) return entries;
    }
    sections_.emplace_back(name, Section{});
    return sections_.back().second;
  }

  std::string bench_name_;
  Section params_;
  std::vector<std::pair<std::string, Section>> sections_;
};

}  // namespace gaa::bench
