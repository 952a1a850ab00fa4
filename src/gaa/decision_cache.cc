#include "gaa/decision_cache.h"

#include <functional>

#include "telemetry/metrics.h"

namespace gaa::core {

namespace {
std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

DecisionCache::DecisionCache(std::size_t slots)
    : mask_(RoundUpPow2(slots) - 1),
      slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

std::shared_ptr<const DecisionCache::CachedDecision> DecisionCache::Get(
    std::string_view key, std::uint64_t snapshot_version,
    std::uint64_t state_epoch) {
  std::size_t slot = std::hash<std::string_view>{}(key)&mask_;
  std::shared_ptr<const CachedDecision> entry =
      slots_[slot].load(std::memory_order_acquire);
  if (entry != nullptr && entry->snapshot_version == snapshot_version &&
      (!entry->epoch_fenced || entry->state_epoch == state_epoch) &&
      entry->key == key) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_counter_ != nullptr) hit_counter_->Inc();
    return entry;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (miss_counter_ != nullptr) miss_counter_->Inc();
  return nullptr;
}

bool DecisionCache::Peek(std::string_view key, std::uint64_t snapshot_version,
                         std::uint64_t state_epoch) const {
  std::size_t slot = std::hash<std::string_view>{}(key)&mask_;
  std::shared_ptr<const CachedDecision> entry =
      slots_[slot].load(std::memory_order_acquire);
  return entry != nullptr && entry->snapshot_version == snapshot_version &&
         (!entry->epoch_fenced || entry->state_epoch == state_epoch) &&
         entry->key == key;
}

void DecisionCache::Put(std::string key, std::uint64_t snapshot_version,
                        AuthzResult result,
                        telemetry::Counter* entry_counter,
                        std::uint64_t state_epoch, bool epoch_fenced) {
  auto entry = std::make_shared<CachedDecision>();
  entry->key = std::move(key);
  entry->snapshot_version = snapshot_version;
  entry->result = std::move(result);
  entry->entry_counter = entry_counter;
  entry->state_epoch = state_epoch;
  entry->epoch_fenced = epoch_fenced;
  std::size_t slot = std::hash<std::string_view>{}(entry->key)&mask_;
  slots_[slot].store(std::move(entry), std::memory_order_release);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (insert_counter_ != nullptr) insert_counter_->Inc();
}

void DecisionCache::Clear() {
  for (std::size_t i = 0; i <= mask_; ++i) {
    slots_[i].store(nullptr, std::memory_order_release);
  }
}

std::size_t DecisionCache::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (slots_[i].load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

void DecisionCache::AttachMetrics(telemetry::MetricRegistry* registry) {
  if (registry == nullptr) return;
  hit_counter_ = registry->GetCounter("gaa_decision_cache_hits_total");
  miss_counter_ = registry->GetCounter("gaa_decision_cache_misses_total");
  insert_counter_ =
      registry->GetCounter("gaa_decision_cache_insertions_total");
}

}  // namespace gaa::core
