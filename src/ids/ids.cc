#include "ids/ids.h"

#include <algorithm>

namespace gaa::ids {

IntrusionDetectionSystem::IntrusionDetectionSystem(
    core::SystemState* state, util::Clock* clock,
    ThreatService::Options threat_options)
    : state_(state),
      clock_(clock),
      threat_(state, clock, threat_options),
      bus_(clock),
      stream_(sketch::StreamingAnomalyProvider::Options{}),
      signatures_(SignatureDb::KnownWebAttacks()) {}

void IntrusionDetectionSystem::AttachMetrics(
    telemetry::MetricRegistry* registry) {
  metrics_ = registry;
  report_counters_.Clear();
  bus_.AttachMetrics(registry);
  threat_.AttachMetrics(registry);
  stream_.AttachMetrics(registry);
}

void IntrusionDetectionSystem::AttachAudit(core::AuditSink* audit) {
  audit_ = audit;
}

void IntrusionDetectionSystem::Report(const core::IdsReport& report) {
  if (metrics_ != nullptr) {
    report_counters_
        .Get(static_cast<std::size_t>(report.kind), *metrics_,
             "ids_reports_total",
             [&] {
               return std::string("kind=\"") +
                      core::ReportKindName(report.kind) + "\"";
             })
        ->Inc();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    reports_.push_back(report);
  }
  // Severity-weighted feed into the threat profile; benign pattern reports
  // (item 7) do not escalate.
  if (report.kind != core::ReportKind::kLegitimatePattern) {
    const core::ThreatLevel before = threat_.level();
    threat_.ReportAlert(static_cast<double>(report.severity) *
                        report.confidence);
    const core::ThreatLevel after = threat_.level();
    if (audit_ != nullptr && after != before) {
      core::AuditEvent event;
      event.category = "threat";
      event.message = std::string("threat level ") +
                      core::ThreatLevelName(before) + " -> " +
                      core::ThreatLevelName(after) + " (trigger: " +
                      core::ReportKindName(report.kind) + ")";
      event.client = report.source_ip;
      audit_->Record(event);
    }
  }
  Event event;
  event.topic = std::string("gaa.report.") + core::ReportKindName(report.kind);
  event.source = "gaa-api";
  event.severity = report.severity;
  event.payload = "ip=" + report.source_ip + " object=" + report.object +
                  " type=" + report.attack_type + " detail=" + report.detail;
  bus_.Publish(std::move(event));

  // Adaptive values track the (possibly just escalated) threat level.
  RecomputeAdaptiveValues();
}

void IntrusionDetectionSystem::ObserveRequest(const std::string& client_ip,
                                              const std::string& path,
                                              util::TimePoint now_us) {
  const double severity = stream_.Observe(client_ip, path, now_us);
  if (severity < stream_.options().report_threshold) return;
  core::IdsReport report;
  report.kind = core::ReportKind::kSuspiciousBehavior;
  report.source_ip = client_ip;
  report.object = path;
  report.attack_type = "stream_anomaly";
  report.severity = static_cast<int>(severity);
  report.confidence = 0.8;
  report.detail = "sketch features crossed thresholds";
  Report(report);
}

void IntrusionDetectionSystem::PeriodicMaintenance() {
  threat_.Tick();
  if (clock_ != nullptr) stream_.MaintenanceTick(clock_->Now());
  // The tick may have decayed the level; adaptive thresholds must follow.
  RecomputeAdaptiveValues();
}

bool IntrusionDetectionSystem::SuspectedSpoofing(const std::string& source_ip) {
  std::lock_guard<std::mutex> lock(mu_);
  return spoofed_sources_.count(source_ip) > 0;
}

void IntrusionDetectionSystem::MarkSpoofedSource(const std::string& source_ip) {
  std::lock_guard<std::mutex> lock(mu_);
  spoofed_sources_.insert(source_ip);
}

void IntrusionDetectionSystem::ClearSpoofedSources() {
  std::lock_guard<std::mutex> lock(mu_);
  spoofed_sources_.clear();
}

void IntrusionDetectionSystem::PushAdaptiveValue(const std::string& var_name,
                                                 const std::string& value) {
  if (state_ != nullptr) state_->SetVariable(var_name, value);
}

void IntrusionDetectionSystem::RecomputeAdaptiveValues() {
  if (state_ == nullptr) return;
  switch (threat_.level()) {
    case core::ThreatLevel::kLow:
      state_->SetVariable("gaa.max_cgi_input", "1000");
      state_->SetVariable("gaa.rate_limit", "100");
      state_->SetVariable("gaa.lockdown_hours", "00:00-24:00");
      break;
    case core::ThreatLevel::kMedium:
      state_->SetVariable("gaa.max_cgi_input", "500");
      state_->SetVariable("gaa.rate_limit", "30");
      state_->SetVariable("gaa.lockdown_hours", "08:00-18:00");
      break;
    case core::ThreatLevel::kHigh:
      state_->SetVariable("gaa.max_cgi_input", "200");
      state_->SetVariable("gaa.rate_limit", "5");
      state_->SetVariable("gaa.lockdown_hours", "09:00-17:00");
      break;
  }
}

std::vector<core::IdsReport> IntrusionDetectionSystem::ReportsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

std::size_t IntrusionDetectionSystem::report_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_.size();
}

std::size_t IntrusionDetectionSystem::CountKind(core::ReportKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& r : reports_) {
    if (r.kind == kind) ++n;
  }
  return n;
}

}  // namespace gaa::ids
