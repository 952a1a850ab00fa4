// Event bus + subscription channels.
//
// Paper §9 (future work): "We plan to design a policy-controlled interface
// for establishing a subscription-based communication channels to allow
// GAA-API and IDSs to communicate."  We implement it: publishers post typed
// events to topics; subscribers register callbacks with an optional
// per-subscription policy filter (minimum severity, topic glob), which is
// the "policy-controlled" part.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/glob.h"

namespace gaa::telemetry {
class Counter;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::ids {

struct Event {
  std::string topic;    ///< e.g. "gaa.report.detected_attack"
  std::string source;   ///< component name
  int severity = 0;     ///< 0..10
  std::string payload;  ///< free-form detail
  util::TimePoint time_us = 0;
};

using EventCallback = std::function<void(const Event&)>;

/// Per-subscription delivery policy.
struct SubscriptionPolicy {
  std::string topic_pattern = "*";  ///< glob over topics
  int min_severity = 0;             ///< drop events below this severity
};

class EventBus {
 public:
  using SubscriptionId = std::uint64_t;

  explicit EventBus(util::Clock* clock) : clock_(clock) {}

  SubscriptionId Subscribe(SubscriptionPolicy policy, EventCallback callback);
  bool Unsubscribe(SubscriptionId id);

  /// Deliver synchronously to every matching subscriber.
  void Publish(Event event);

  /// Count publishes and per-subscriber deliveries as
  /// `ids_events_published_total` / `ids_events_delivered_total`, the
  /// bus's only counts.  Call before concurrent Publish traffic; null
  /// detaches.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  std::size_t subscriber_count() const;

 private:
  struct Subscription {
    SubscriptionPolicy policy;
    util::CompiledGlob topic_glob;
    EventCallback callback;
  };

  util::Clock* clock_;
  telemetry::Counter* published_counter_ = nullptr;
  telemetry::Counter* delivered_counter_ = nullptr;
  mutable std::mutex mu_;
  std::map<SubscriptionId, Subscription> subs_;
  SubscriptionId next_id_ = 1;
};

}  // namespace gaa::ids
