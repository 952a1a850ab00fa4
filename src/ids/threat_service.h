// Threat-level service: the IDS component that "supplies a system threat
// level" (paper §7.1: low = normal operation, medium = suspicious behaviour,
// high = under attack).
//
// The service aggregates severity-weighted alert scores over a sliding
// window and maps the score to a level via two thresholds; levels decay
// back down after a quiet period.  It writes the level into the shared
// SystemState, where `pre_cond_system_threat_level` reads it.
//
// The window is a fixed ring of time buckets (DESIGN.md §12.2), so an
// alert and a tick cost the same however many alerts the window holds,
// and the service's memory never grows.  An alert counts for at least
// `window_us` and for less than `window_us` plus one bucket width.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>

#include "gaa/system_state.h"
#include "util/clock.h"

namespace gaa::telemetry {
class Counter;
class Gauge;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::ids {

class ThreatService {
 public:
  struct Options {
    util::DurationUs window_us = 60 * util::kMicrosPerSecond;
    double medium_score = 10.0;  ///< window score that raises level to medium
    double high_score = 30.0;    ///< window score that raises level to high
    /// Quiet time after which the level steps down one notch.
    util::DurationUs decay_us = 120 * util::kMicrosPerSecond;
  };

  ThreatService(core::SystemState* state, util::Clock* clock)
      : ThreatService(state, clock, Options{}) {}
  ThreatService(core::SystemState* state, util::Clock* clock,
                Options options);

  /// Feed one alert (severity 0..10).  Recomputes and publishes the level.
  void ReportAlert(double severity);

  /// Feed an alert that originated in *another* process (cluster bus
  /// delivery, DESIGN.md §15).  Identical window/score treatment to
  /// ReportAlert, but never re-invokes the bus hook — remote alerts must
  /// not echo back onto the bus.
  void ReportRemoteAlert(double severity);

  /// Cluster hook: invoked (outside the service lock) after every locally
  /// originated alert, with the alert's severity and the level it produced.
  /// The cluster glue publishes both onto the shared-memory bus.
  using BusHook = std::function<void(double severity, core::ThreatLevel now)>;
  void set_bus_hook(BusHook hook) { bus_hook_ = std::move(hook); }

  /// Re-evaluate decay; call periodically (or before reads in tests).
  void Tick();

  /// Administrator override (also what a remote IDS would push).
  void ForceLevel(core::ThreatLevel level);

  /// Export the level as gauge `ids_threat_level` (0=low 1=medium 2=high)
  /// and level changes as counter `ids_threat_transitions_total`.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  core::ThreatLevel level() const;
  double WindowScore() const;

  /// The window spans this many buckets of ⌈window_us / kBuckets⌉ µs.
  static constexpr std::int64_t kBuckets = 64;

 private:
  /// The scores of the alerts filed in [index * width, (index + 1) * width).
  struct Bucket {
    std::int64_t index = 0;
    double score = 0;
  };

  /// File one alert and recompute; returns the level it produced.
  core::ThreatLevel AddAlert(double severity);
  /// Sum of the buckets that still overlap [now - window_us, now].
  double ScoreLocked(util::TimePoint now) const;
  void RecomputeLocked();
  void PublishLevelLocked(core::ThreatLevel previous);

  core::SystemState* state_;
  util::Clock* clock_;
  Options options_;
  util::DurationUs bucket_us_;
  BusHook bus_hook_;  // set before serving starts; never under mu_
  telemetry::Gauge* level_gauge_ = nullptr;
  telemetry::Counter* transitions_ = nullptr;
  mutable std::mutex mu_;
  // One slot more than the window spans: the bucket that the window's
  // trailing edge cuts through still counts.
  std::array<Bucket, kBuckets + 1> ring_{};
  core::ThreatLevel level_ = core::ThreatLevel::kLow;
  util::TimePoint last_escalation_us_ = 0;
};

}  // namespace gaa::ids
