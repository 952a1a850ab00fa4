// Content-addressed compiled-IR store (DESIGN.md §14).
//
// Scaling the policy plane to thousands of tenant namespaces must not
// multiply compiled state: most tenants differ in a handful of entries and
// share the rest (the shared global policy set verbatim, boilerplate local
// policies byte-for-byte).  The IrStore makes that sharing structural, the
// way nix's store shares build outputs: every compiled policy is keyed by a
// canonical *content hash* of its structure, and compiling the same
// structure twice returns the same immutable `CompiledPolicy` object.
//
//   * Hashing is structural, not textual: two policy texts that parse to
//     the same AST (whitespace, ordering of fields inside a condition
//     token) intern to one object.  The hash covers everything evaluation
//     can observe — composition mode, entry order, rights, every condition
//     of every phase block — plus the provenance name (attribution counters
//     and audit records are keyed by name, so identically-structured
//     policies with different names stay distinct objects) and the
//     compile environment version (a registry change alters which routines
//     get baked in, so stale IR can never be served).
//   * Entries are held by weak_ptr: the store never keeps IR alive on its
//     own.  Snapshots hold the strong references; when the last tenant
//     referencing a fragment drops it, the next Sweep() (the policy store
//     runs one after every republish) erases the dead slot.  Dedup
//     hits/misses and the live entry/byte totals are counted into
//     gaa_ir_store_* metrics.
//
// Thread-safety: Intern/Sweep are mutex-guarded (they run on the policy
// mutation path, never per request); the returned CompiledPolicy objects
// are immutable and lock-free to evaluate, exactly as before.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "eacl/ast.h"
#include "eacl/compile.h"

namespace gaa::telemetry {
class Counter;
class Gauge;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::eacl {

/// Canonical structural content hashes (FNV-1a 64 over an unambiguous
/// field-tagged serialization).  Stable within a process run; used as
/// intern keys and exposed on the compiled IR for tooling and tests.
std::uint64_t HashCondition(const Condition& cond);
std::uint64_t HashEntry(const Entry& entry);
std::uint64_t HashPolicy(const Eacl& policy);

class IrStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;      ///< interns served from an existing object
    std::uint64_t misses = 0;    ///< interns that had to compile
    std::uint64_t sweeps = 0;    ///< dead (expired) slots reclaimed
    std::size_t entries = 0;     ///< live interned objects
    std::size_t bytes = 0;       ///< ApproxIrBytes over live objects
  };

  /// Return the compiled form of `policy`, compiling at most once per
  /// distinct (structure, name, environment version).  `env_version` must
  /// change whenever `env` would compile differently (the registry's
  /// change_version); the metrics handle set is part of the environment,
  /// so pass a distinct version per registry binding if envs alternate.
  std::shared_ptr<const CompiledPolicy> Intern(const Eacl& policy,
                                               const std::string& name,
                                               const CompileEnv& env,
                                               std::uint64_t env_version);

  /// Erase the slots whose object no holder keeps alive any more, then
  /// publish the `gaa_ir_store_{entries,bytes}` gauges.
  void Sweep();

  /// Mirror the counters into `gaa_ir_store_{hits,misses}_total` and the
  /// `gaa_ir_store_{entries,bytes}` gauges.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  Stats stats() const;

 private:
  void PublishGaugesLocked();

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const CompiledPolicy>> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t sweeps_ = 0;
  std::size_t live_bytes_ = 0;  ///< refreshed by Sweep
  telemetry::Counter* hit_counter_ = nullptr;
  telemetry::Counter* miss_counter_ = nullptr;
  telemetry::Gauge* entries_gauge_ = nullptr;
  telemetry::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace gaa::eacl
