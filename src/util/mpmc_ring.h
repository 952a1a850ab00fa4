// Bounded lock-free MPMC ring (Dmitry Vyukov's bounded queue).
//
// The transport's worker handoff runs on these rings: each reactor shard
// owns one job ring (shard event loop produces, that shard's workers
// consume) and one completion ring (workers produce, the shard consumes).
// Both uses are covered by the general MPMC algorithm; the steady state is
// one CAS per push/pop with no mutex anywhere.
//
// Each cell carries a sequence number: `seq == pos` means "free for the
// producer claiming position pos"; `seq == pos + 1` means "holds the value
// for the consumer claiming position pos".  Producers and consumers claim
// positions with a CAS on tail_/head_ and then publish through the cell's
// sequence, so a slow producer never makes a consumer spin on a torn value.
//
// Capacity is rounded up to a power of two.  Push fails (returns false)
// when the ring is full, Pop when it is empty — callers size the ring so
// overflow is impossible by construction (the transport bounds in-flight
// jobs by the connection cap) or handle the failure explicitly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace gaa::util {

template <typename T>
class MpmcRing {
 public:
  /// `min_capacity` is rounded up to a power of two (minimum 2).
  explicit MpmcRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// False when the ring is full; `value` is left untouched in that case.
  bool Push(T&& value) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      std::size_t seq = cell->seq.load(std::memory_order_acquire);
      auto diff = static_cast<std::intptr_t>(seq) -
                  static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full: the cell still holds an unconsumed value
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// False when the ring is empty.
  bool Pop(T& out) {
    Cell* cell;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      std::size_t seq = cell->seq.load(std::memory_order_acquire);
      auto diff = static_cast<std::intptr_t>(seq) -
                  static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->value = T();  // release owned resources eagerly, not at overwrite
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate under concurrency; exact when producers/consumers are
  /// quiescent (tests, shutdown drains).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Occupancy estimate: claimed-but-unconsumed positions.  Approximate
  /// under concurrency (the two loads are not a snapshot) but never
  /// negative — the observability layer samples this for the ring-depth
  /// gauges and high-watermark accounting.
  std::size_t ApproxSize() const {
    std::size_t tail = tail_.load(std::memory_order_acquire);
    std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::size_t mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumers
  alignas(64) std::atomic<std::size_t> tail_{0};  // producers
};

}  // namespace gaa::util
