// Policy retrieval (paper §6, step 2a: gaa_get_object_policy_info).
//
// Mirrors Apache's .htaccess behaviour: "when processing a client's request
// to access a document Apache looks for an access control file in every
// directory of the path to the document".  The store keeps one optional
// system-wide policy list plus local policies attached to directory
// prefixes; PoliciesFor(object) gathers the system-wide policies and every
// local policy on the directory chain of `object`, root to leaf.
//
// A monotonically increasing version number lets the decision memo detect
// staleness after any policy change.
//
// Compiled-engine publication (DESIGN.md §9): once an engine is bound via
// BindEngine, every mutation also recompiles the full policy set into an
// immutable PolicySnapshot and publishes it through one atomic pointer
// swap (RCU-style).  Request threads read the current snapshot with a
// single acquire-load — no lock, no copy — and a policy tightened during an
// attack takes effect on the very next request.  Readers hold snapshots by
// shared_ptr, so a superseded snapshot is reclaimed as soon as the last
// reader releases it: the retired list keeps superseded snapshots only
// until their use_count drops to the store's own reference (plus a small
// configurable floor of the most recent ones), so policy churn no longer
// grows memory without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "eacl/ast.h"
#include "eacl/compile.h"
#include "eacl/composition.h"
#include "eacl/ir_store.h"
#include "util/status.h"

namespace gaa::util {
class Clock;
}  // namespace gaa::util

namespace gaa::telemetry {
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::core {

/// What the policy compiler needs; supplied by the GaaApi that owns the
/// registry.  One binding per store — the last bind wins, and snapshots are
/// served only to the registry they were compiled against.
struct EngineBinding {
  const ConditionRegistry* registry = nullptr;
  telemetry::MetricRegistry* metrics = nullptr;  ///< may be null (detached)
  util::Clock* clock = nullptr;                  ///< may be null
};

/// An immutable compiled view of one namespace's policy set at one store
/// version.  The default namespace's snapshot sees only the shared global
/// policies; a tenant's snapshot layers the tenant's own system policies
/// after the globals and overlays its local policies over the global ones
/// (same-prefix tenant locals shadow).
class PolicySnapshot {
 public:
  std::uint64_t store_version() const { return store_version_; }
  std::uint64_t registry_version() const { return registry_version_; }
  const ConditionRegistry* compiled_for() const { return compiled_for_; }
  eacl::CompositionMode mode() const { return mode_; }

  /// Namespace this snapshot was built for ("" = default).
  const std::string& tenant() const { return tenant_; }

  /// Value of the namespace's source-mutation counter at build time; the
  /// store compares it against the live counter to detect a published
  /// snapshot that lags its sources (the Clear()/Remove() staleness guard).
  std::uint64_t source_version() const { return source_version_; }

  /// Assemble the per-path view: system policies plus the directory-chain
  /// locals.  Pure pointer gathering over immutable data — no locks.
  eacl::CompiledComposition ForPath(const std::string& object_path) const;

  const std::vector<std::shared_ptr<const eacl::CompiledPolicy>>& system()
      const {
    return system_;
  }
  const std::map<std::string, std::shared_ptr<const eacl::CompiledPolicy>>&
  locals() const {
    return locals_;
  }

 private:
  friend class PolicyStore;

  std::uint64_t store_version_ = 0;
  std::uint64_t registry_version_ = 0;
  std::uint64_t source_version_ = 0;
  const ConditionRegistry* compiled_for_ = nullptr;
  std::string tenant_;
  eacl::CompositionMode mode_ = eacl::CompositionMode::kNarrow;
  std::vector<std::shared_ptr<const eacl::CompiledPolicy>> system_;
  std::map<std::string, std::shared_ptr<const eacl::CompiledPolicy>> locals_;
};

/// The published tenant → snapshot table: itself one immutable RCU object,
/// so a request thread resolves its namespace with a single acquire-load
/// plus a map lookup over frozen data.  The default namespace is NOT in the
/// table (it has its own dedicated atomic slot).
struct TenantTable {
  std::map<std::string, std::shared_ptr<const PolicySnapshot>, std::less<>>
      snapshots;
  /// Tenant-mutation counter value at publish (staleness guard).
  std::uint64_t source_version = 0;
};

class PolicyStore {
 public:
  /// Add a system-wide policy (parsed EACL text).  Multiple system-wide
  /// policies conjoin at evaluation time.
  util::VoidResult AddSystemPolicy(const std::string& eacl_text);

  /// Same, with an explicit provenance name reported by decision
  /// attribution ("" = positional "system#<index>").  File-backed policies
  /// are named by their path automatically.
  util::VoidResult AddSystemPolicyNamed(const std::string& eacl_text,
                                        const std::string& name);

  /// File-backed variants (the paper's deployment keeps policies in
  /// system and local policy files).
  util::VoidResult AddSystemPolicyFile(const std::string& path);
  util::VoidResult SetLocalPolicyFile(const std::string& dir_prefix,
                                      const std::string& path);

  /// Attach a local policy to a directory prefix, e.g. "/" or "/cgi-bin".
  /// Replaces any previous policy at the same prefix (like rewriting the
  /// directory's .htaccess).
  util::VoidResult SetLocalPolicy(const std::string& dir_prefix,
                                  const std::string& eacl_text);

  /// Remove the local policy at a prefix; returns true if one existed.
  bool RemoveLocalPolicy(const std::string& dir_prefix);

  /// Drop all policies — global and every tenant's (tests).
  void Clear();

  // --- tenant namespaces (DESIGN.md §14) -----------------------------------
  // Every tenant sees the shared global policies (the system-wide set and
  // the "/"-chain locals added through the methods above) plus its own
  // layer: tenant system policies evaluate after the globals, tenant locals
  // shadow a global local at the same directory prefix.  All tenant
  // snapshots are compiled through the content-addressed IrStore, so the
  // shared layer — and any tenant-local policy that is structurally
  // identical under the same provenance name — is one compiled object no
  // matter how many tenants reference it.

  /// Create an (empty) tenant namespace.  Idempotent; the tenant becomes
  /// resolvable immediately with the purely-global policy view.
  util::VoidResult AddTenant(const std::string& tenant);

  /// Remove a tenant and retire its snapshot; returns false if unknown.
  bool RemoveTenant(const std::string& tenant);

  bool HasTenant(std::string_view tenant) const;
  std::vector<std::string> TenantNames() const;
  std::size_t tenant_count() const;

  /// Tenant-scoped mutators; all auto-create the tenant (Set/Add) and
  /// republish the tenant table atomically before returning.
  util::VoidResult AddTenantSystemPolicy(const std::string& tenant,
                                         const std::string& eacl_text,
                                         const std::string& name = "");
  util::VoidResult SetTenantLocalPolicy(const std::string& tenant,
                                        const std::string& dir_prefix,
                                        const std::string& eacl_text);
  bool RemoveTenantLocalPolicy(const std::string& tenant,
                               const std::string& dir_prefix);

  /// One row of the /__status/tenants view.
  struct TenantInfo {
    std::string name;
    std::uint64_t snapshot_version = 0;
    std::size_t system_policies = 0;  ///< tenant's own layer only
    std::size_t local_policies = 0;   ///< tenant's own layer only
  };
  std::vector<TenantInfo> TenantInfos() const;

  /// The content-addressed compile cache (bench/status introspection).
  eacl::IrStore::Stats ir_store_stats() const { return ir_store_.stats(); }

  /// Retrieve and compose the policies protecting `object_path`.
  /// System-wide policies come first; local policies follow the directory
  /// chain root→leaf (more-specific policies later, consistent with ordered
  /// evaluation precedence of earlier == higher-priority policies).
  eacl::ComposedPolicy PoliciesFor(const std::string& object_path) const;

  /// Tenant-scoped variant for the interpreted engine: globals plus the
  /// tenant's layer, same shadowing rules the compiled snapshot applies.
  /// tenant == "" (or unknown) degrades to PoliciesFor.
  eacl::ComposedPolicy PoliciesForTenant(std::string_view tenant,
                                         const std::string& object_path) const;

  /// Version counter bumped by every mutation; used for cache invalidation.
  std::uint64_t version() const { return version_.load(); }

  // --- compiled snapshot publication (DESIGN.md §9) -------------------------

  /// Bind the compiler inputs and publish the first snapshot.  Called by
  /// GaaApi construction; harmless to rebind (last bind wins).
  void BindEngine(EngineBinding binding);

  /// The currently published snapshot — one atomic shared_ptr load, no
  /// lock.  Null before BindEngine.  Holding the returned shared_ptr pins
  /// the snapshot; release it promptly (per-request scope) so superseded
  /// snapshots can be reclaimed.
  std::shared_ptr<const PolicySnapshot> CurrentSnapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Hot-path accessor: the published snapshot, recompiled first (cold,
  /// mutex-guarded) when `registry_version` says routines were registered
  /// after the last compile.  Returns null — caller falls back to the
  /// interpreter — when the engine is bound to a different registry or the
  /// store is in parse-on-retrieve (ablation) mode.
  std::shared_ptr<const PolicySnapshot> FreshSnapshot(
      const ConditionRegistry* registry, std::uint64_t registry_version);

  /// Tenant-scoped twins.  An unknown (or empty) tenant falls back to the
  /// default namespace — the unknown-host request is then governed by the
  /// global policy set, never left unpoliced.
  std::shared_ptr<const PolicySnapshot> CurrentSnapshotFor(
      std::string_view tenant) const;
  std::shared_ptr<const PolicySnapshot> FreshSnapshotFor(
      std::string_view tenant, const ConditionRegistry* registry,
      std::uint64_t registry_version);

  /// Superseded snapshots not yet reclaimed (gauge mirror:
  /// `gaa_policy_snapshots_retired`).
  std::size_t retired_count() const;

  /// Keep at least the `n` most recently superseded snapshots alive even
  /// when unreferenced (debugging headroom; default 2).  Older entries are
  /// reclaimed as soon as no reader holds them.
  void set_retired_floor(std::size_t n);
  std::size_t retired_floor() const;

  /// When enabled, PoliciesFor re-parses the stored policy *text* on every
  /// retrieval instead of returning the pre-parsed form.  This models the
  /// paper's implementation, which read and translated the policy files on
  /// each request — the cost its §9 policy caching was meant to remove.  The
  /// A1 ablation benchmarks flip this switch.  Also disables the compiled
  /// snapshot path (FreshSnapshot returns null) so the ablation measures
  /// the interpreted pipeline.
  void SetParseOnRetrieve(bool enabled) { parse_on_retrieve_ = enabled; }
  bool parse_on_retrieve() const { return parse_on_retrieve_; }

  std::size_t system_policy_count() const;
  std::size_t local_policy_count() const;

  /// Split "/a/b/c.html" into its directory chain: "/", "/a", "/a/b".
  static std::vector<std::string> DirectoryChain(const std::string& object_path);

  /// Render the current policy set back to EACL text (policy-officer
  /// export; round-trips through the parser).
  std::string ExportSystemPolicies() const;
  std::optional<std::string> ExportLocalPolicy(
      const std::string& dir_prefix) const;

 private:
  /// One tenant's own policy layer (sources; compiled forms live in the
  /// published snapshots).
  struct TenantSources {
    std::vector<eacl::Eacl> system_policies;
    std::vector<std::string> system_texts;
    std::vector<std::string> system_names;
    std::map<std::string, eacl::Eacl> local_policies;
    std::map<std::string, std::string> local_texts;
  };

  /// Compile one namespace's snapshot through the IrStore; `mu_` held.
  /// `tenant` null builds the default (globals-only) snapshot.
  std::shared_ptr<const PolicySnapshot> BuildSnapshotLocked(
      const std::string& tenant_name, const TenantSources* tenant);

  /// Single republication funnel (the Clear()/RemoveLocalPolicy staleness
  /// fix rides on every mutator ending here): rebuild the default snapshot
  /// AND every tenant snapshot (a global mutation changes what all of them
  /// see), publish both atomic slots, retire predecessors; `mu_` held.
  /// A no-op until an engine is bound.
  void RepublishAllLocked();

  /// Rebuild and republish exactly one tenant's snapshot (tenant-scoped
  /// mutation: nobody else's snapshot — or memos — move); `mu_` held.
  void RepublishTenantLocked(const std::string& tenant);

  /// Publish a new tenant table derived from the current one by replacing
  /// (or erasing, when `snap` is null) one tenant's entry; `mu_` held.
  void SwapTenantTableLocked(
      const std::string& tenant,
      std::shared_ptr<const PolicySnapshot> snap);

  /// Drop retired snapshots whose use_count fell to the store's own
  /// reference, keeping the `retired_floor_` newest; `mu_` must be held.
  /// Safe because snapshots enter retired_ only after they stop being the
  /// published one, so their reference count can only decrease.
  void ReclaimRetiredLocked();

  /// The compile-environment identity fed to IrStore::Intern: mixes the
  /// registry pointer + change version and the metrics registry, so a
  /// rebind or routine (un)registration can never serve stale IR.
  std::uint64_t CompileEnvKeyLocked() const;

  mutable std::mutex mu_;
  std::vector<eacl::Eacl> system_policies_;
  std::vector<std::string> system_texts_;
  std::vector<std::string> system_names_;  // parallel provenance names
  std::map<std::string, eacl::Eacl> local_policies_;   // prefix -> policy
  std::map<std::string, std::string> local_texts_;     // prefix -> text
  std::map<std::string, TenantSources, std::less<>> tenants_;  // under mu_
  std::atomic<std::uint64_t> version_{0};
  /// Bumped only by mutations visible to the default namespace (global
  /// system/local changes, Clear): the staleness fence FreshSnapshot checks
  /// against the published snapshot.  Tenant-scoped mutations leave it
  /// alone so they cannot perturb default-namespace memo fencing.
  std::atomic<std::uint64_t> default_version_{0};
  /// Bumped by any tenant-layer mutation; fences the tenant table.
  std::atomic<std::uint64_t> tenant_version_{0};
  std::atomic<bool> parse_on_retrieve_{false};

  EngineBinding binding_;  // guarded by mu_
  /// Content-addressed compile cache shared by every namespace's builds.
  eacl::IrStore ir_store_;
  /// Published snapshot.  Readers load a shared_ptr (lock-free publication,
  /// reference-counted reclamation); superseded snapshots move to
  /// `retired_` until quiescent.
  std::atomic<std::shared_ptr<const PolicySnapshot>> snapshot_;
  /// Published tenant table (never null once an engine is bound).
  std::atomic<std::shared_ptr<const TenantTable>> tenant_table_;
  std::vector<std::shared_ptr<const PolicySnapshot>> retired_;  // under mu_
  std::size_t retired_floor_ = 2;                               // under mu_
};

}  // namespace gaa::core
