// The intrusion detection system: receives GAA-API reports (core::IdsChannel
// implementation), drives the threat-level service, publishes events on the
// bus, and plays the roles of the paper's external IDS components:
//
//   * network-based IDS: the spoofing oracle consulted before pro-active
//     countermeasures (§3);
//   * host-based IDS: the adaptive-threshold provider that pushes values
//     for thresholds / times / locations into SystemState variables, which
//     `var:`-valued conditions read (§3 last paragraph);
//   * anomaly-based detection on top of the signature-based machinery (§9).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "gaa/services.h"
#include "gaa/system_state.h"
#include "ids/event_bus.h"
#include "ids/signature_db.h"
#include "ids/sketch/stream_ids.h"
#include "ids/threat_service.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace gaa::ids {

class IntrusionDetectionSystem final : public core::IdsChannel {
 public:
  IntrusionDetectionSystem(core::SystemState* state, util::Clock* clock)
      : IntrusionDetectionSystem(state, clock, ThreatService::Options{}) {}
  IntrusionDetectionSystem(core::SystemState* state, util::Clock* clock,
                           ThreatService::Options threat_options);

  // --- core::IdsChannel ----------------------------------------------------
  void Report(const core::IdsReport& report) override;
  bool SuspectedSpoofing(const std::string& source_ip) override;

  /// Export IDS activity into the registry: `ids_reports_total{kind=...}`
  /// per report kind, plus bus publish/delivery counters and the threat
  /// level gauge (forwards to EventBus / ThreatService).  Null detaches.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  /// Record threat-level transitions into the audit trail as structured
  /// "threat" events (old level, new level, triggering report kind).  Null
  /// detaches.  The sink must outlive the IDS.
  void AttachAudit(core::AuditSink* audit);

  // --- live request stream (DESIGN.md §12) ---------------------------------
  /// Feed one served request into the streaming anomaly provider.  This is
  /// O(sketch): a few atomic increments plus one sharded-mutex quantile
  /// update, safe to call from the transport's inline fast path.
  /// Severities at or above the provider's report threshold become
  /// kSuspiciousBehavior reports (escalating the threat level, which in
  /// turn fences threat-dependent memo entries).
  void ObserveRequest(const std::string& client_ip, const std::string& path,
                      util::TimePoint now_us);

  /// Periodic housekeeping, driven by the transport's shard timer wheel:
  /// threat decay (ThreatService::Tick), sketch window aging, and a
  /// refresh of the adaptive SystemState variables.
  void PeriodicMaintenance();

  // --- components ----------------------------------------------------------
  ThreatService& threat() { return threat_; }
  EventBus& bus() { return bus_; }
  sketch::StreamingAnomalyProvider& stream() { return stream_; }
  SignatureDb& signatures() { return signatures_; }

  // --- network-IDS oracle configuration (tests / scenarios) ----------------
  void MarkSpoofedSource(const std::string& source_ip);
  void ClearSpoofedSources();

  // --- host-based adaptive thresholds (§3) ----------------------------------
  /// Push an adaptive value into SystemState under `var_name`; policies
  /// reference it as "var:<var_name>".
  void PushAdaptiveValue(const std::string& var_name, const std::string& value);

  /// Recompute built-in adaptive values from the current threat level:
  /// stricter CGI-input and rate limits as the level rises.  Writes
  /// gaa.max_cgi_input, gaa.rate_limit and gaa.lockdown_hours.
  void RecomputeAdaptiveValues();

  // --- stats ---------------------------------------------------------------
  std::vector<core::IdsReport> ReportsSnapshot() const;
  std::size_t report_count() const;
  std::size_t CountKind(core::ReportKind kind) const;

 private:
  core::SystemState* state_;
  util::Clock* clock_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  /// `ids_reports_total{kind}` handles, indexed by core::ReportKind.
  telemetry::LazyCounterArray<8> report_counters_;
  core::AuditSink* audit_ = nullptr;
  ThreatService threat_;
  EventBus bus_;
  sketch::StreamingAnomalyProvider stream_;
  SignatureDb signatures_;
  mutable std::mutex mu_;
  std::vector<core::IdsReport> reports_;
  std::set<std::string> spoofed_sources_;
};

}  // namespace gaa::ids
