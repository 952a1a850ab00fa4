#include "telemetry/metrics.h"

#include <algorithm>

namespace gaa::telemetry {

const std::vector<std::uint64_t>& Histogram::DefaultLatencyBoundsUs() {
  static const std::vector<std::uint64_t> bounds = {
      10,     25,     50,     100,     250,     500,       1'000,
      2'500,  5'000,  10'000, 25'000,  50'000,  100'000,   250'000,
      500'000, 1'000'000, 2'500'000};
  return bounds;
}

const std::vector<std::uint64_t>& Histogram::WideLatencyBoundsUs() {
  static const std::vector<std::uint64_t> bounds =
      LogBounds(1, 60'000'000, 32);
  return bounds;
}

std::vector<std::uint64_t> Histogram::LogBounds(std::uint64_t min_value,
                                                std::uint64_t max_value,
                                                std::uint64_t sub_buckets) {
  if (min_value == 0) min_value = 1;
  if (sub_buckets == 0) sub_buckets = 1;
  std::vector<std::uint64_t> bounds;
  bounds.push_back(min_value);
  std::uint64_t octave = min_value;  // lower edge of the current doubling
  std::uint64_t value = min_value;
  while (value < max_value) {
    std::uint64_t step = octave / sub_buckets;
    if (step == 0) step = 1;
    value += step;
    if (value >= octave * 2) octave *= 2;
    bounds.push_back(std::min(value, max_value));
  }
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBoundsUs() : std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Interpolate within [lower, upper].  The +Inf bucket spans
      // (last bound, max]; any bucket containing the observed max is
      // clamped to it — without this, p99 of a distribution with a 10s
      // tail silently saturates at the last finite bound.
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      double upper = i < bounds.size() ? static_cast<double>(bounds[i])
                                       : static_cast<double>(max);
      if (max > 0 && static_cast<double>(max) < upper) {
        upper = static_cast<double>(max);
      }
      if (upper < lower) upper = lower;
      const double frac =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative += in_bucket;
  }
  return max > 0 ? static_cast<double>(max)
                 : (bounds.empty() ? 0.0 : static_cast<double>(bounds.back()));
}

MetricRegistry::~MetricRegistry() = default;

MetricRegistry::Slot* MetricRegistry::FindOrCreate(
    MetricKind kind, const std::string& name, const std::string& labels,
    const std::vector<std::uint64_t>* histogram_bounds) {
  // Kind, name and labels, joined by bytes no name or label contains.
  std::string key(1, "cgh"[static_cast<int>(kind)]);
  key.reserve(name.size() + labels.size() + 3);
  key.append(1, ':').append(name).append(1, '\x01').append(labels);
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;

  auto slot = std::make_unique<Slot>();
  slot->name = name;
  slot->labels = labels;
  slot->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      slot->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      slot->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      slot->histogram = std::make_unique<Histogram>(*histogram_bounds);
      break;
  }
  Slot* raw = slot.get();
  slots_.push_back(std::move(slot));
  index_.emplace(std::move(key), raw);
  return raw;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& labels) {
  return FindOrCreate(MetricKind::kCounter, name, labels, nullptr)
      ->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& labels) {
  return FindOrCreate(MetricKind::kGauge, name, labels, nullptr)->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(
    const std::string& name, const std::string& labels,
    const std::vector<std::uint64_t>& bounds) {
  return FindOrCreate(MetricKind::kHistogram, name, labels, &bounds)
      ->histogram.get();
}

std::vector<MetricRegistry::Entry> MetricRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) {
    out.push_back(Entry{s->name, s->labels, s->kind, s->counter.get(),
                        s->gauge.get(), s->histogram.get()});
  }
  return out;
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : slots_) {
    if (s->counter) s->counter->Reset();
    if (s->histogram) s->histogram->Reset();
  }
}

std::uint64_t MetricRegistry::lookups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lookups_;
}

}  // namespace gaa::telemetry
