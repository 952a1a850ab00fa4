// Metrics registry: named counters, gauges and fixed-bucket histograms,
// designed for the request hot path.
//
// Design constraints (the layer every perf PR is judged against):
//
//   * The increment path never acquires a mutex.  Counters spread their
//     updates over cache-line-padded shards indexed by a per-thread slot, so
//     concurrent workers do not bounce one cache line; histograms use relaxed
//     atomic adds on per-bucket counters.
//   * Metric *lookup* by name is cold: one hash index under one mutex, so
//     memory is linear in the series count.  Serving paths never look a
//     series up by string; they hold handles resolved at construction, at
//     policy compile time, or lazily through LazyCounterArray.  Handles are
//     stable for the registry's lifetime.
//   * Reads (Value(), snapshots, exposition) are approximate under
//     concurrency in the usual Prometheus sense: monotone, eventually exact
//     once writers quiesce.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gaa::telemetry {

namespace internal {
/// Per-thread shard slot, assigned round-robin on first use.
inline unsigned ThreadShardSlot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}
}  // namespace internal

/// Monotone counter.  Inc() is wait-free: one relaxed fetch_add on a shard
/// owned (mostly) by the calling thread.
class Counter {
 public:
  static constexpr unsigned kShards = 16;  // power of two

  void Inc(std::uint64_t n = 1) {
    shards_[internal::ThreadShardSlot() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zero the counter (tests, WebServer::ClearLogs).  Not atomic with
  /// respect to concurrent increments.
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-value gauge (signed).
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram.  Record() is three relaxed atomic adds (bucket,
/// count, sum) plus a CAS-max on the observed maximum; bucket choice is a
/// branch-free-ish binary search over the immutable bound list.
class Histogram {
 public:
  /// Default bounds for request latencies in microseconds: 10us .. 2.5s.
  static const std::vector<std::uint64_t>& DefaultLatencyBoundsUs();

  /// Wide-range log-bucketed bounds: 1us .. 60s, 32 sub-buckets per octave
  /// (HDR-style).  Relative bucket width is <= 1/32 (~3.1%) everywhere, so
  /// interpolated quantiles carry bounded relative error across the whole
  /// range — built for the open-loop load harness where a stalled server
  /// must show up as a multi-second tail, not a saturated 2.5s cap.
  static const std::vector<std::uint64_t>& WideLatencyBoundsUs();

  /// Generator behind WideLatencyBoundsUs(): inclusive upper bounds from
  /// `min_value` to `max_value` with `sub_buckets` linear steps per octave
  /// (doubling).  Steps never fall below 1, so small octaves are exact.
  static std::vector<std::uint64_t> LogBounds(std::uint64_t min_value,
                                              std::uint64_t max_value,
                                              std::uint64_t sub_buckets);

  /// `bounds` are inclusive upper bounds, strictly increasing; an implicit
  /// +Inf bucket is appended.  Empty means DefaultLatencyBoundsUs().
  explicit Histogram(std::vector<std::uint64_t> bounds = {});

  void Record(std::uint64_t value) {
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {  // first bound >= value; bounds_.size() == +Inf bucket
      std::size_t mid = (lo + hi) / 2;
      if (bounds_[mid] < value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    buckets_[lo].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    std::vector<std::uint64_t> bounds;  ///< upper bounds, +Inf implicit last
    std::vector<std::uint64_t> counts;  ///< bounds.size()+1 buckets
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;  ///< largest value ever recorded

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Quantile estimate (q in [0,1]) by linear interpolation inside the
    /// containing bucket.  The bucket holding the observed max (including
    /// the +Inf overflow bucket) interpolates toward `max` instead of
    /// saturating at the last finite bound, so overflow tails stay visible.
    double Quantile(double q) const;
  };

  Snapshot TakeSnapshot() const;
  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Thread-safe metric registry: one hash index from (kind, name, labels)
/// to its slot, plus the slots in creation order, both under one mutex.
/// Returned handles are stable until the registry dies.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// `name` is the Prometheus family name (snake_case); `labels` the
  /// rendered label pairs without braces, e.g. `right="GET",outcome="yes"`.
  /// The (kind, name, labels) triple identifies the metric.
  Counter* GetCounter(const std::string& name, const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  /// `bounds` are copied only when the series is created.
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "",
                          const std::vector<std::uint64_t>& bounds = {});

  struct Entry {
    std::string name;
    std::string labels;
    MetricKind kind = MetricKind::kCounter;
    Counter* counter = nullptr;      // set when kind == kCounter
    Gauge* gauge = nullptr;          // set when kind == kGauge
    Histogram* histogram = nullptr;  // set when kind == kHistogram
  };

  /// Every metric, in creation order (exposition + tests).  The handles are
  /// live objects — values read from them are as fresh as the caller reads.
  std::vector<Entry> List() const;

  /// Zero every counter and histogram (gauges keep their last value).
  void ResetAll();

  /// Get* calls so far; a warm serving path holds handles, so none.
  std::uint64_t lookups() const;

 private:
  struct Slot {
    std::string name;
    std::string labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot* FindOrCreate(MetricKind kind, const std::string& name,
                     const std::string& labels,
                     const std::vector<std::uint64_t>* histogram_bounds);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot*> index_;  // guarded by mu_
  std::vector<std::unique_ptr<Slot>> slots_;      // creation order; mu_
  std::uint64_t lookups_ = 0;                     // guarded by mu_
};

/// N counter handles of one family.  Slot i (< N) registers
/// `name{make_labels()}` on first use and publishes the handle with
/// release/acquire, so a reader that sees it also sees the counter.  Series
/// stay lazy: the family lists only the slots that have fired.
template <std::size_t N>
class LazyCounterArray {
 public:
  static constexpr std::size_t kSize = N;

  template <typename MakeLabels>
  Counter* Get(std::size_t i, MetricRegistry& registry, const char* name,
               MakeLabels&& make_labels) {
    Counter* counter = slots_[i].load(std::memory_order_acquire);
    if (counter == nullptr) {
      counter = registry.GetCounter(name, make_labels());
      slots_[i].store(counter, std::memory_order_release);
    }
    return counter;
  }

  /// Forget every handle (the registry they point into is going away).
  void Clear() {
    for (auto& slot : slots_) slot.store(nullptr, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<Counter*>, N> slots_{};
};

}  // namespace gaa::telemetry
