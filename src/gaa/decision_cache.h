// Decision memoization for the compiled policy engine (DESIGN.md §9).
//
// Caches *terminal* authorization answers keyed by (subject, right, object,
// snapshot version).  Admission is gated by the compiler's purity analysis:
// only decisions reached exclusively through kPure conditions are offered,
// and MAYBE is never cached (a MAYBE answer means conditions were left
// unevaluated — the 401/redirect translation must see them fresh, and new
// credentials on the next request may flip the answer).
//
// Structure: a power-of-two array of atomic slots, direct-mapped by key
// hash.  Get is one atomic shared_ptr load plus a full-key compare (hash
// collisions fall back to a miss, never to a wrong answer); Put replaces
// the slot unconditionally.  An entry holds the decision itself — status,
// attribution, unevaluated list, mid/post blocks — and no evaluation
// trace, so a slot and a hit cost the same at any policy size.  The
// snapshot version is part of the entry, so every policy change
// invalidates the whole cache implicitly — policy tightening during an
// attack takes effect on the next request, exactly like the snapshot swap
// itself.
//
// Threat-fenced entries (DESIGN.md §12): decisions that passed through a
// kThreatFenced condition additionally record the SystemState threat epoch
// they were computed under.  A threat-level transition bumps the epoch, so
// those entries go stale the same way a policy reload makes every entry
// stale — the IDS raising the alarm takes effect on the very next request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eacl/ast.h"
#include "util/tristate.h"

namespace gaa::telemetry {
class Counter;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::core {

/// Provenance of an authorization decision: the policy, entry index and
/// condition that produced the final YES / NO / MAYBE.  Best-effort when
/// several policies combine (the side that settled the composed answer
/// wins); always present when any entry applied.
struct DecisionAttribution {
  std::string policy;     ///< policy name ("system#0", "local:/cgi-bin", a path)
  int entry = -1;         ///< entry index within that policy
  std::string condition;  ///< deciding condition type ("" = the right itself)
  util::Tristate status = util::Tristate::kNo;
};

/// Answer from CheckAuthorization (paper §6: the authorization status).
/// The evaluation trace is not part of it: a caller that wants one sets
/// RequestContext::explain.
struct AuthzResult {
  util::Tristate status = util::Tristate::kNo;

  /// Which EACL entry (and condition) decided — for the audit stream,
  /// per-entry metrics and /__status/policies.  Empty when no entry applied.
  std::optional<DecisionAttribution> attribution;

  /// Conditions left unevaluated (no routine registered, missing
  /// credentials, or deliberately application-interpreted such as
  /// pre_cond_redirect).  Non-empty exactly when some block went MAYBE via
  /// unevaluated conditions; the integration layer inspects this for the
  /// 401-vs-redirect translation.
  std::vector<eacl::Condition> unevaluated;

  /// Mid/post blocks of the granting entries, saved for phases 3 and 4.
  std::vector<eacl::Condition> mid_conditions;
  std::vector<eacl::Condition> post_conditions;

  /// True if any policy entry (on either side) covered the requested right.
  bool applicable = false;
};

class DecisionCache {
 public:
  static constexpr std::size_t kDefaultSlots = 4096;

  /// `slots` is rounded up to a power of two; 0 disables the cache.
  explicit DecisionCache(std::size_t slots = kDefaultSlots);

  struct CachedDecision {
    std::string key;
    std::uint64_t snapshot_version = 0;
    AuthzResult result;
    /// The deciding entry's eacl_entry_decisions_total handle, so memo
    /// hits keep per-entry attribution counters exact.  May be null.
    telemetry::Counter* entry_counter = nullptr;
    /// SystemState threat epoch the decision was computed under; consulted
    /// only when `epoch_fenced` (the decision passed through a
    /// kThreatFenced condition).
    std::uint64_t state_epoch = 0;
    bool epoch_fenced = false;
  };

  /// Null on miss, stale version, stale threat epoch (fenced entries only)
  /// or hash collision.
  std::shared_ptr<const CachedDecision> Get(std::string_view key,
                                            std::uint64_t snapshot_version,
                                            std::uint64_t state_epoch = 0);

  /// Admission probe for the transport's inline fast path: true when a
  /// current-version (and current-epoch, for fenced entries) entry exists
  /// for `key`.  Unlike Get, Peek perturbs nothing — no hit/miss counters,
  /// no metrics — so probing a request and then declining to serve it
  /// inline leaves the cache statistics exact.
  bool Peek(std::string_view key, std::uint64_t snapshot_version,
            std::uint64_t state_epoch = 0) const;

  void Put(std::string key, std::uint64_t snapshot_version,
           AuthzResult result,
           telemetry::Counter* entry_counter, std::uint64_t state_epoch = 0,
           bool epoch_fenced = false);

  /// Drop every entry (tests; not required for correctness on policy
  /// change — the version key already fences stale answers).
  void Clear();

  /// Mirror hit/miss accounting into gaa_decision_cache_{hits,misses}_total
  /// (plus _insertions_total) so /__status reports them.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t insertions() const {
    return insertions_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return mask_ == 0 ? 0 : mask_ + 1; }
  /// Occupied slots (approximate under concurrency; tests only).
  std::size_t size() const;

 private:
  using Slot = std::atomic<std::shared_ptr<const CachedDecision>>;

  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  telemetry::Counter* hit_counter_ = nullptr;
  telemetry::Counter* miss_counter_ = nullptr;
  telemetry::Counter* insert_counter_ = nullptr;
};

}  // namespace gaa::core
