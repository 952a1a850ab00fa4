#include "ids/event_bus.h"

#include "telemetry/metrics.h"

namespace gaa::ids {

EventBus::SubscriptionId EventBus::Subscribe(SubscriptionPolicy policy,
                                             EventCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  SubscriptionId id = next_id_++;
  util::CompiledGlob glob(policy.topic_pattern);
  subs_.emplace(id, Subscription{std::move(policy), std::move(glob),
                                 std::move(callback)});
  return id;
}

bool EventBus::Unsubscribe(SubscriptionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.erase(id) > 0;
}

void EventBus::Publish(Event event) {
  if (event.time_us == 0 && clock_ != nullptr) event.time_us = clock_->Now();
  std::vector<EventCallback> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, sub] : subs_) {
      if (event.severity < sub.policy.min_severity) continue;
      if (!sub.topic_glob.Matches(event.topic)) continue;
      targets.push_back(sub.callback);
    }
  }
  if (published_counter_ != nullptr) published_counter_->Inc();
  if (delivered_counter_ != nullptr && !targets.empty()) {
    delivered_counter_->Inc(targets.size());
  }
  // Deliver outside the lock: callbacks may publish or (un)subscribe.
  for (const auto& cb : targets) cb(event);
}

void EventBus::AttachMetrics(telemetry::MetricRegistry* registry) {
  if (registry == nullptr) {
    published_counter_ = nullptr;
    delivered_counter_ = nullptr;
    return;
  }
  published_counter_ = registry->GetCounter("ids_events_published_total");
  delivered_counter_ = registry->GetCounter("ids_events_delivered_total");
}

std::size_t EventBus::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.size();
}

}  // namespace gaa::ids
