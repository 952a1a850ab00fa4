// Shared test fixtures and fakes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit_log.h"
#include "audit/notification.h"
#include "gaa/api.h"
#include "gaa/policy_store.h"
#include "gaa/registry.h"
#include "gaa/services.h"
#include "gaa/system_state.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "util/ip.h"

namespace gaa::testing {

/// IdsChannel fake that records reports and answers spoofing queries from a
/// fixed set.
class RecordingIds final : public core::IdsChannel {
 public:
  void Report(const core::IdsReport& report) override {
    reports.push_back(report);
  }
  bool SuspectedSpoofing(const std::string& source_ip) override {
    for (const auto& ip : spoofed)
      if (ip == source_ip) return true;
    return false;
  }
  std::size_t CountKind(core::ReportKind kind) const {
    std::size_t n = 0;
    for (const auto& r : reports)
      if (r.kind == kind) ++n;
    return n;
  }

  std::vector<core::IdsReport> reports;
  std::vector<std::string> spoofed;
};

/// Reports an IntrusionDetectionSystem counted in `ids_reports_total`: of
/// `kind`, or of every kind when none is given.  Reads
/// MetricRegistry::List(), so it creates no series.
inline std::uint64_t IdsReportCount(
    const telemetry::MetricRegistry& registry,
    std::optional<core::ReportKind> kind = std::nullopt) {
  const std::string labels =
      kind ? std::string("kind=\"") + core::ReportKindName(*kind) + "\"" : "";
  std::uint64_t count = 0;
  for (const auto& e : registry.List()) {
    if (e.name == "ids_reports_total" && (!kind || e.labels == labels)) {
      count += e.counter->Value();
    }
  }
  return count;
}

/// Everything a condition/evaluation test needs, wired to a simulated clock
/// and latency-free notification.
struct TestRig {
  TestRig()
      : clock(1053345600LL * util::kMicrosPerSecond),  // 2003-05-19 12:00 UTC
        state(&clock),
        audit(&clock),
        notifier(&clock, /*delivery_latency_us=*/0) {
    services.state = &state;
    services.clock = &clock;
    services.notifier = &notifier;
    services.audit = &audit;
    services.ids = &ids;
  }

  util::SimulatedClock clock;
  core::SystemState state;
  audit::AuditLog audit;
  audit::SimulatedSmtpNotifier notifier;
  RecordingIds ids;
  core::EvalServices services;
};

/// A request context with sensible defaults for condition tests.
inline core::RequestContext MakeContext(
    const std::string& client_ip = "10.0.0.1",
    const std::string& object = "/index.html",
    const std::string& operation = "GET") {
  core::RequestContext ctx;
  ctx.application = "apache";
  ctx.operation = operation;
  ctx.object = object;
  ctx.raw_url = object;
  ctx.client_ip = util::Ipv4Address::Parse(client_ip).value();
  return ctx;
}

inline eacl::Condition MakeCond(const std::string& type,
                                const std::string& def_auth,
                                const std::string& value) {
  return eacl::Condition{type, def_auth, value};
}

}  // namespace gaa::testing
