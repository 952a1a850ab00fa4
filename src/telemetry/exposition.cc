#include "telemetry/exposition.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>
#include <string_view>
#include <unordered_set>

#include "util/strings.h"

namespace gaa::telemetry {

namespace {

std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  util::AppendJsonEscaped(s, &out);
  out.push_back('"');
}

}  // namespace

std::string RenderPrometheus(const MetricRegistry& registry) {
  return RenderPrometheus(registry, std::string());
}

std::string RenderPrometheus(const MetricRegistry& registry,
                             const std::string& extra_label) {
  std::ostringstream out;
  std::unordered_set<std::string> typed;  // one # TYPE line per family
  for (const MetricRegistry::Entry& e : registry.List()) {
    const std::string family = SanitizeName(e.name);
    if (typed.insert(family).second) {
      out << "# TYPE " << family << ' ' << KindName(e.kind) << '\n';
    }
    const std::string labels =
        extra_label.empty()
            ? e.labels
            : (e.labels.empty() ? extra_label : e.labels + "," + extra_label);
    const std::string braces =
        labels.empty() ? std::string() : "{" + labels + "}";
    switch (e.kind) {
      case MetricKind::kCounter:
        out << family << braces << ' ' << e.counter->Value() << '\n';
        break;
      case MetricKind::kGauge:
        out << family << braces << ' ' << e.gauge->Value() << '\n';
        break;
      case MetricKind::kHistogram: {
        const Histogram::Snapshot s = e.histogram->TakeSnapshot();
        const std::string sep = labels.empty() ? "" : ",";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          cumulative += s.counts[i];
          out << family << "_bucket{" << labels << sep
              << "le=\"" << s.bounds[i] << "\"} " << cumulative << '\n';
        }
        cumulative += s.counts.back();
        out << family << "_bucket{" << labels << sep << "le=\"+Inf\"} "
            << cumulative << '\n';
        out << family << "_sum" << braces << ' ' << s.sum << '\n';
        out << family << "_count" << braces << ' ' << s.count << '\n';
        out << family << "_max" << braces << ' ' << s.max << '\n';
        break;
      }
    }
  }
  return out.str();
}

namespace {

std::string RenderTraceArray(const std::vector<RequestTrace>& traces) {
  std::string out;
  out.reserve(256 * traces.size() + 2);
  out.push_back('[');
  bool first_trace = true;
  for (const RequestTrace& t : traces) {
    if (!first_trace) out.push_back(',');
    first_trace = false;
    out += "{\"id\":" + std::to_string(t.id());
    out += ",\"method\":";
    AppendJsonString(out, t.method);
    out += ",\"target\":";
    AppendJsonString(out, t.target);
    out += ",\"client_ip\":";
    AppendJsonString(out, t.client_ip);
    out += ",\"status\":" + std::to_string(t.status);
    out += std::string(",\"slow\":") + (t.slow ? "true" : "false");
    out += ",\"start_unix_us\":" + std::to_string(t.start_unix_us());
    out += ",\"duration_us\":" + std::to_string(t.DurationUs());
    out += ",\"spans\":[";
    bool first_span = true;
    for (const Span& s : t.spans()) {
      if (!first_span) out.push_back(',');
      first_span = false;
      out += "{\"name\":";
      AppendJsonString(out, s.name);
      out += ",\"depth\":" + std::to_string(s.depth);
      out += ",\"start_us\":" + std::to_string(s.start_us - t.start_us());
      const std::int64_t end = s.end_us == 0 ? t.end_us() : s.end_us;
      out += ",\"duration_us\":" + std::to_string(end - s.start_us);
      out.push_back('}');
    }
    out += "]}";
  }
  out.push_back(']');
  return out;
}

void AppendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += buf;
}

void AppendQuantiles(std::string& out, const Histogram::Snapshot& s) {
  out += ",\"count\":" + std::to_string(s.count);
  out += ",\"sum\":" + std::to_string(s.sum);
  out += ",\"mean\":";
  AppendDouble(out, s.Mean());
  out += ",\"p50\":";
  AppendDouble(out, s.Quantile(0.50));
  out += ",\"p95\":";
  AppendDouble(out, s.Quantile(0.95));
  out += ",\"p99\":";
  AppendDouble(out, s.Quantile(0.99));
  out += ",\"p999\":";
  AppendDouble(out, s.Quantile(0.999));
  out += ",\"max\":" + std::to_string(s.max);
}

/// Parse a `key="value",...` label string into pairs.  Values are the
/// registry's own (we never emit embedded quotes), so a flat scan is enough.
std::vector<std::pair<std::string, std::string>> ParseLabels(
    const std::string& labels) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while (pos < labels.size()) {
    std::size_t eq = labels.find("=\"", pos);
    if (eq == std::string::npos) break;
    std::size_t close = labels.find('"', eq + 2);
    if (close == std::string::npos) break;
    out.emplace_back(labels.substr(pos, eq - pos),
                     labels.substr(eq + 2, close - eq - 2));
    pos = close + 1;
    if (pos < labels.size() && labels[pos] == ',') ++pos;
  }
  return out;
}

std::string LabelValue(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return std::string();
}

}  // namespace

std::string RenderTracesJson(const Tracer& tracer, std::size_t limit) {
  return RenderTraceArray(tracer.Recent(limit));
}

std::string RenderSlowTracesJson(const Tracer& tracer) {
  return RenderTraceArray(tracer.Pinned());
}

std::string RenderMetricsJson(const MetricRegistry& registry, int process) {
  std::string body = RenderMetricsJson(registry);  // "{...}"
  body.replace(0, 1, "{\"process\":" + std::to_string(process) + ",");
  return body;
}

std::string RenderMetricsJson(const MetricRegistry& registry) {
  std::string counters, gauges, histograms;
  for (const MetricRegistry::Entry& e : registry.List()) {
    std::string item = "{\"name\":";
    AppendJsonString(item, e.name);
    item += ",\"labels\":";
    AppendJsonString(item, e.labels);
    switch (e.kind) {
      case MetricKind::kCounter:
        item += ",\"value\":" + std::to_string(e.counter->Value()) + "}";
        if (!counters.empty()) counters.push_back(',');
        counters += item;
        break;
      case MetricKind::kGauge:
        item += ",\"value\":" + std::to_string(e.gauge->Value()) + "}";
        if (!gauges.empty()) gauges.push_back(',');
        gauges += item;
        break;
      case MetricKind::kHistogram: {
        AppendQuantiles(item, e.histogram->TakeSnapshot());
        item.push_back('}');
        if (!histograms.empty()) histograms.push_back(',');
        histograms += item;
        break;
      }
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "]}";
}

std::string RenderPoliciesJson(const MetricRegistry& registry) {
  // policy name -> entry index -> outcome -> count, preserving first-seen
  // policy/entry order (registry creation order is evaluation order).
  struct EntryCounts {
    int entry = 0;
    std::uint64_t outcomes[4] = {0, 0, 0, 0};  // yes, no, maybe, miss
  };
  std::vector<std::pair<std::string, std::vector<EntryCounts>>> policies;
  std::string conditions;

  auto policy_slot = [&](const std::string& name)
      -> std::vector<EntryCounts>& {
    for (auto& [n, entries] : policies) {
      if (n == name) return entries;
    }
    policies.emplace_back(name, std::vector<EntryCounts>());
    return policies.back().second;
  };
  auto entry_slot = [](std::vector<EntryCounts>& entries,
                       int index) -> EntryCounts& {
    for (auto& e : entries) {
      if (e.entry == index) return e;
    }
    entries.push_back(EntryCounts{index, {0, 0, 0, 0}});
    return entries.back();
  };

  for (const MetricRegistry::Entry& e : registry.List()) {
    if (e.kind == MetricKind::kCounter &&
        e.name == "eacl_entry_decisions_total") {
      const auto labels = ParseLabels(e.labels);
      const std::string outcome = LabelValue(labels, "outcome");
      int outcome_idx = outcome == "yes"     ? 0
                        : outcome == "no"    ? 1
                        : outcome == "maybe" ? 2
                                             : 3;
      int entry_idx = 0;
      const std::string entry_text = LabelValue(labels, "entry");
      if (!entry_text.empty()) entry_idx = std::atoi(entry_text.c_str());
      EntryCounts& slot =
          entry_slot(policy_slot(LabelValue(labels, "policy")), entry_idx);
      slot.outcomes[outcome_idx] += e.counter->Value();
    } else if (e.kind == MetricKind::kHistogram &&
               e.name == "gaa_cond_eval_us") {
      const auto labels = ParseLabels(e.labels);
      std::string item = "{\"cond\":";
      AppendJsonString(item, LabelValue(labels, "cond"));
      item += ",\"auth\":";
      AppendJsonString(item, LabelValue(labels, "auth"));
      AppendQuantiles(item, e.histogram->TakeSnapshot());
      item.push_back('}');
      if (!conditions.empty()) conditions.push_back(',');
      conditions += item;
    }
  }

  std::string out = "{\"policies\":[";
  bool first_policy = true;
  for (auto& [name, entries] : policies) {
    if (!first_policy) out.push_back(',');
    first_policy = false;
    std::sort(entries.begin(), entries.end(),
              [](const EntryCounts& a, const EntryCounts& b) {
                return a.entry < b.entry;
              });
    out += "{\"policy\":";
    AppendJsonString(out, name);
    out += ",\"entries\":[";
    bool first_entry = true;
    for (const EntryCounts& e : entries) {
      if (!first_entry) out.push_back(',');
      first_entry = false;
      out += "{\"entry\":" + std::to_string(e.entry);
      out += ",\"yes\":" + std::to_string(e.outcomes[0]);
      out += ",\"no\":" + std::to_string(e.outcomes[1]);
      out += ",\"maybe\":" + std::to_string(e.outcomes[2]);
      out += ",\"miss\":" + std::to_string(e.outcomes[3]);
      out.push_back('}');
    }
    out += "]}";
  }
  out += "],\"conditions\":[" + conditions + "]}";
  return out;
}

}  // namespace gaa::telemetry
