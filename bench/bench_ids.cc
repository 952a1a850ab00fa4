// E6: streaming-IDS cost vs client cardinality (DESIGN.md §12).
//
// The tentpole claim of the sketch IDS is O(sketch) per-request cost and
// fixed memory no matter how many distinct clients the server sees.  This
// bench drives the StreamingAnomalyProvider directly (no sockets — the
// transport cost is identical per cardinality and would only dilute the
// number under test) with a synthetic request stream drawn from client
// populations of 1k up to 10M, and checks:
//
//   * flat per-request cost: the most expensive cardinality may cost at
//     most `--max-ratio` (default 1.25x) of the cheapest;
//   * bounded memory: MemoryBytes() is byte-identical at every
//     cardinality (it is fixed at construction — the bench proves no
//     per-client state sneaks in through a side door).
//
// The exact AnomalyDetector the provider replaces is measured at the two
// smallest cardinalities for reference (its per-principal map makes large
// populations both slow and memory-proportional — the very thing the
// sketches exist to avoid).
//
// The report path (IntrusionDetectionSystem::Report, the threat window
// behind it) is measured at 10k and 1M in-window alerts: the larger may
// cost at most 1.2x the smaller, since an alert lands in a fixed ring of
// time buckets whatever the window holds.
//
//   bench_ids [--requests N] [--repeats R] [--max-ratio X] [--json out.json]
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gaa/system_state.h"
#include "ids/anomaly.h"
#include "ids/ids.h"
#include "ids/sketch/stream_ids.h"
#include "util/rng.h"

namespace gaa::bench {
namespace {

struct RunResult {
  double ns_per_request = 0;
  std::size_t memory_bytes = 0;
};

/// Fixed-width client id so string-building cost is identical at every
/// cardinality (the generator overhead cancels out of the ratio).
void FormatClient(char* buf, std::size_t len, std::uint64_t id) {
  std::snprintf(buf, len, "c%09" PRIu64, id);
}

RunResult RunStreaming(std::uint64_t cardinality, std::uint64_t requests,
                       int repeats) {
  // Paths drawn from a fixed catalog: URI-rate and fan-out sketches see
  // the same resource distribution at every cardinality.
  std::vector<std::string> paths;
  paths.reserve(512);
  for (int i = 0; i < 512; ++i) {
    paths.push_back("/docs/page" + std::to_string(i) + ".html");
  }

  RunResult best;
  for (int rep = 0; rep < repeats; ++rep) {
    ids::sketch::StreamingAnomalyProvider provider{
        ids::sketch::StreamingAnomalyProvider::Options{}};
    util::Rng rng(static_cast<std::uint64_t>(rep) * 977 + cardinality);
    char client[24];
    util::TimePoint now = 0;

    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < requests; ++i) {
      now += 50;  // 20k synthetic requests per simulated second
      FormatClient(client, sizeof(client), rng.NextBelow(cardinality));
      provider.Observe(client, paths[rng.NextBelow(paths.size())], now);
      // The transport tick, at bench rate: cheap no-op inside the window,
      // one halving/rotation when the 60 s window rolls over.
      if ((i & 0xffff) == 0) provider.MaintenanceTick(now);
    }
    auto t1 = std::chrono::steady_clock::now();

    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                static_cast<double>(requests);
    if (best.ns_per_request == 0 || ns < best.ns_per_request) {
      best.ns_per_request = ns;
    }
    best.memory_bytes = provider.MemoryBytes();
  }
  return best;
}

double RunExactReference(std::uint64_t cardinality, std::uint64_t requests,
                         int repeats) {
  std::vector<std::string> paths;
  for (int i = 0; i < 512; ++i) {
    paths.push_back("/docs/page" + std::to_string(i) + ".html");
  }
  double best = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    util::SimulatedClock clock(0);
    ids::AnomalyDetector detector(&clock);
    util::Rng rng(static_cast<std::uint64_t>(rep) * 977 + cardinality);
    char client[24];
    ids::RequestFeatures features;
    features.query_length = 10;
    features.url_depth = 2;

    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < requests; ++i) {
      clock.Advance(50);
      FormatClient(client, sizeof(client), rng.NextBelow(cardinality));
      features.principal.assign(client);
      features.path = paths[rng.NextBelow(paths.size())];
      detector.Observe(features);
    }
    auto t1 = std::chrono::steady_clock::now();
    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                static_cast<double>(requests);
    if (best == 0 || ns < best) best = ns;
  }
  return best;
}

/// ns per IntrusionDetectionSystem::Report over `kTimed` reports filed
/// once `in_window` alerts are in the threat window.  Every report comes
/// from a distinct source, 50 µs after the last on a simulated clock, so
/// 1M alerts span 50 s of the default 60 s window; the level reaches high
/// within the first reports and stays there.
double TimeReportPath(std::uint64_t in_window) {
  constexpr std::uint64_t kTimed = 10'000;
  util::SimulatedClock clock(0);
  core::SystemState state(&clock);
  telemetry::MetricRegistry metrics;
  ids::IntrusionDetectionSystem ids(&state, &clock);
  ids.AttachMetrics(&metrics);
  core::IdsReport report;
  report.kind = core::ReportKind::kDetectedAttack;
  report.object = "/cgi-bin/phf";
  report.attack_type = "cgi_exploit";
  report.severity = 8;
  report.confidence = 1.0;
  char source[24];
  auto file = [&](std::uint64_t from, std::uint64_t count) {
    for (std::uint64_t i = from; i < from + count; ++i) {
      std::snprintf(source, sizeof(source), "10.%u.%u.%u",
                    static_cast<unsigned>(i >> 16 & 255),
                    static_cast<unsigned>(i >> 8 & 255),
                    static_cast<unsigned>(i & 255));
      report.source_ip = source;
      clock.Advance(50);
      ids.Report(report);
    }
  };
  file(0, in_window);
  auto t0 = std::chrono::steady_clock::now();
  file(in_window, kTimed);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kTimed);
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int Main(int argc, char** argv) {
  std::uint64_t requests = 2'000'000;
  int repeats = 3;
  double max_ratio = 1.25;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0) {
      requests = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--max-ratio") == 0) {
      max_ratio = std::atof(argv[i + 1]);
    }
  }

  const std::uint64_t cardinalities[] = {1'000, 10'000, 100'000, 1'000'000,
                                         10'000'000};

  JsonReport report("ids");
  PrintHeader("E6: streaming IDS cost vs client cardinality (" +
              std::to_string(requests) + " requests/run)");
  std::printf("%-14s %14s %16s\n", "clients", "ns/request", "sketch bytes");

  double min_ns = 0, max_ns = 0;
  std::size_t min_bytes = 0, max_bytes = 0;
  for (std::uint64_t cardinality : cardinalities) {
    RunResult r = RunStreaming(cardinality, requests, repeats);
    std::printf("%-14" PRIu64 " %14.1f %16zu\n", cardinality,
                r.ns_per_request, r.memory_bytes);
    std::string section = "clients_" + std::to_string(cardinality);
    report.Set(section, "ns_per_request", r.ns_per_request);
    report.Set(section, "memory_bytes",
               static_cast<double>(r.memory_bytes));
    report.Set(section, "requests", static_cast<double>(requests));
    if (min_ns == 0 || r.ns_per_request < min_ns) min_ns = r.ns_per_request;
    if (r.ns_per_request > max_ns) max_ns = r.ns_per_request;
    if (min_bytes == 0 || r.memory_bytes < min_bytes) {
      min_bytes = r.memory_bytes;
    }
    if (r.memory_bytes > max_bytes) max_bytes = r.memory_bytes;
  }

  // Reference: the exact per-principal detector, small populations only
  // (its cost and memory grow with the client map; 10M principals would
  // be the OOM scenario the sketches eliminate).
  std::printf("\n%-14s %14s\n", "exact ref", "ns/request");
  for (std::uint64_t cardinality : {1'000ULL, 10'000ULL}) {
    double ns = RunExactReference(cardinality, requests / 10, repeats);
    std::printf("%-14" PRIu64 " %14.1f\n", cardinality, ns);
    report.Set("exact_clients_" + std::to_string(cardinality),
               "ns_per_request", ns);
  }

  // Report path: cost per report at a small and a large threat window.
  constexpr double kMaxReportRatio = 1.2;
  std::printf("\n%-14s %14s\n", "in-window", "ns/report");
  // Five repetitions of each, alternating, so a slow spell of the host
  // lands on both sizes; each row is the median.
  std::vector<double> small_ns, large_ns;
  for (int rep = 0; rep < 5; ++rep) {
    small_ns.push_back(TimeReportPath(10'000));
    large_ns.push_back(TimeReportPath(1'000'000));
  }
  const double report_small_ns = Median(small_ns);
  const double report_large_ns = Median(large_ns);
  std::printf("%-14d %14.1f\n", 10'000, report_small_ns);
  std::printf("%-14d %14.1f\n", 1'000'000, report_large_ns);
  report.Set("report_alerts_10000", "ns_per_report", report_small_ns);
  report.Set("report_alerts_1000000", "ns_per_report", report_large_ns);
  const double report_ratio = report_large_ns / report_small_ns;
  std::printf("report cost ratio (1M / 10k in-window alerts): %.3fx "
              "(limit %.2fx)\n",
              report_ratio, kMaxReportRatio);

  double cost_ratio = min_ns > 0 ? max_ns / min_ns : 0;
  bool memory_flat = min_bytes == max_bytes;
  std::printf("\ncost ratio (worst/best cardinality): %.3fx (limit %.2fx)\n",
              cost_ratio, max_ratio);
  std::printf("sketch memory constant across cardinalities: %s (%zu bytes)\n",
              memory_flat ? "yes" : "NO", max_bytes);
  report.Set("summary", "cost_ratio", cost_ratio);
  report.Set("summary", "max_ratio_limit", max_ratio);
  report.Set("summary", "memory_flat", memory_flat ? 1 : 0);
  report.Set("summary", "memory_bytes", static_cast<double>(max_bytes));
  report.Set("summary", "report_ratio", report_ratio);
  report.Set("summary", "report_ratio_limit", kMaxReportRatio);

  if (!report.WriteFile(JsonPathFromArgs(argc, argv))) return 1;
  if (cost_ratio > max_ratio) {
    std::fprintf(stderr,
                 "FAIL: per-request cost is not flat (%.3fx > %.2fx)\n",
                 cost_ratio, max_ratio);
    return 1;
  }
  if (!memory_flat) {
    std::fprintf(stderr, "FAIL: sketch memory varies with cardinality\n");
    return 1;
  }
  if (report_ratio > kMaxReportRatio) {
    std::fprintf(stderr,
                 "FAIL: report cost grows with the threat window "
                 "(%.3fx > %.2fx)\n",
                 report_ratio, kMaxReportRatio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gaa::bench

int main(int argc, char** argv) { return gaa::bench::Main(argc, argv); }
