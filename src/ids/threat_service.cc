#include "ids/threat_service.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace gaa::ids {

using core::ThreatLevel;

namespace {

/// Floor division, so bucket boundaries fall alike on both sides of zero.
std::int64_t FloorDiv(std::int64_t a, std::int64_t b) {
  return a / b - (a % b < 0 ? 1 : 0);
}

}  // namespace

ThreatService::ThreatService(core::SystemState* state, util::Clock* clock,
                             Options options)
    : state_(state),
      clock_(clock),
      options_(options),
      bucket_us_(std::max<util::DurationUs>(
          1, (options.window_us + kBuckets - 1) / kBuckets)) {}

void ThreatService::ReportAlert(double severity) {
  const ThreatLevel now = AddAlert(severity);
  // Outside the lock: the hook publishes to the cluster bus, and remote
  // processes may call back into ReportRemoteAlert concurrently.
  if (bus_hook_) bus_hook_(severity, now);
}

void ThreatService::ReportRemoteAlert(double severity) { AddAlert(severity); }

ThreatLevel ThreatService::AddAlert(double severity) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t index = FloorDiv(clock_->Now(), bucket_us_);
  const auto slots = static_cast<std::int64_t>(ring_.size());
  Bucket& bucket =
      ring_[static_cast<std::size_t>(index - FloorDiv(index, slots) * slots)];
  // A slot whose bucket is older than this one has left the window.
  if (bucket.index < index) bucket = Bucket{index, 0};
  bucket.score += severity;
  RecomputeLocked();
  return level_;
}

void ThreatService::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  RecomputeLocked();
}

void ThreatService::ForceLevel(ThreatLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreatLevel previous = level_;
  level_ = level;
  last_escalation_us_ = clock_->Now();
  if (state_ != nullptr) state_->SetThreatLevel(level_);
  PublishLevelLocked(previous);
}

void ThreatService::AttachMetrics(telemetry::MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    level_gauge_ = nullptr;
    transitions_ = nullptr;
    return;
  }
  level_gauge_ = registry->GetGauge("ids_threat_level");
  transitions_ = registry->GetCounter("ids_threat_transitions_total");
  level_gauge_->Set(static_cast<int>(level_));
}

void ThreatService::PublishLevelLocked(ThreatLevel previous) {
  if (level_gauge_ != nullptr) level_gauge_->Set(static_cast<int>(level_));
  if (transitions_ != nullptr && level_ != previous) transitions_->Inc();
}

ThreatLevel ThreatService::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

double ThreatService::WindowScore() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ScoreLocked(clock_->Now());
}

double ThreatService::ScoreLocked(util::TimePoint now) const {
  // A bucket counts while any instant of it lies inside the window.
  const std::int64_t oldest = FloorDiv(now - options_.window_us, bucket_us_);
  double score = 0;
  for (const Bucket& bucket : ring_) {
    if (bucket.index >= oldest) score += bucket.score;
  }
  return score;
}

void ThreatService::RecomputeLocked() {
  ThreatLevel previous = level_;
  util::TimePoint now = clock_->Now();
  const double score = ScoreLocked(now);

  ThreatLevel target = ThreatLevel::kLow;
  if (score >= options_.high_score) {
    target = ThreatLevel::kHigh;
  } else if (score >= options_.medium_score) {
    target = ThreatLevel::kMedium;
  }

  if (target > level_) {
    level_ = target;
    last_escalation_us_ = now;
  } else if (target < level_ &&
             now - last_escalation_us_ >= options_.decay_us) {
    // Step down one notch per decay period; a calm system does not jump
    // straight from high to low.
    level_ = static_cast<ThreatLevel>(static_cast<int>(level_) - 1);
    last_escalation_us_ = now;
  }
  if (state_ != nullptr) state_->SetThreatLevel(level_);
  PublishLevelLocked(previous);
}

}  // namespace gaa::ids
