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
// Namespaces (DESIGN.md §14): the default namespace ("") is one row of the
// store's namespace table, holding the global layer every namespace sees.
// A tenant's row is its own layer on top: its system policies evaluate
// after the globals, and its locals shadow a global local at the same
// prefix.  The global entry points (AddSystemPolicy, SetLocalPolicy,
// PoliciesFor, CurrentSnapshot, ...) forward to the tenant-scoped ones
// with "".
//
// Compiled-engine publication (DESIGN.md §9): once an engine is bound via
// BindEngine, every mutation recompiles the namespaces it touches into
// immutable PolicySnapshots and publishes every namespace's snapshot as
// one immutable table through one atomic shared_ptr swap (RCU-style).
// Request threads read their snapshot with a single acquire-load — no lock,
// no copy — and a policy tightened during an attack takes effect on the
// very next request.  Readers hold the published table by shared_ptr, so a
// superseded snapshot is freed as soon as the last reader releases it;
// nothing else retains it.
#pragma once

#include <array>
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
  const ConditionRegistry* compiled_for_ = nullptr;
  std::string tenant_;
  eacl::CompositionMode mode_ = eacl::CompositionMode::kNarrow;
  std::vector<std::shared_ptr<const eacl::CompiledPolicy>> system_;
  std::map<std::string, std::shared_ptr<const eacl::CompiledPolicy>> locals_;
};

class PolicyStore {
 public:
  // --- policy sources --------------------------------------------------------
  // Every mutator takes a namespace ("" = the default namespace's global
  // layer, shared by every tenant), auto-creates a named tenant, bumps
  // version() and republishes before returning.  The global forms forward
  // with "".

  /// Add a system-wide policy (parsed EACL text).  Multiple system-wide
  /// policies conjoin at evaluation time; a tenant's evaluate after the
  /// globals.  `name` is the provenance reported by decision attribution
  /// ("" = positional "system#<index>", counted per namespace, so two
  /// tenants installing the same boilerplate share one compiled object).
  util::VoidResult AddTenantSystemPolicy(const std::string& tenant,
                                         const std::string& eacl_text,
                                         const std::string& name = "");
  util::VoidResult AddSystemPolicy(const std::string& eacl_text) {
    return AddTenantSystemPolicy("", eacl_text);
  }
  util::VoidResult AddSystemPolicyNamed(const std::string& eacl_text,
                                        const std::string& name) {
    return AddTenantSystemPolicy("", eacl_text, name);
  }

  /// Attach a local policy to a directory prefix, e.g. "/" or "/cgi-bin".
  /// Replaces any previous policy at the same prefix in that namespace
  /// (like rewriting the directory's .htaccess); a tenant's local shadows
  /// the global one at the same prefix.
  util::VoidResult SetTenantLocalPolicy(const std::string& tenant,
                                        const std::string& dir_prefix,
                                        const std::string& eacl_text);
  util::VoidResult SetLocalPolicy(const std::string& dir_prefix,
                                  const std::string& eacl_text) {
    return SetTenantLocalPolicy("", dir_prefix, eacl_text);
  }

  /// Remove the local policy at a prefix; returns true if one existed.
  bool RemoveTenantLocalPolicy(const std::string& tenant,
                               const std::string& dir_prefix);
  bool RemoveLocalPolicy(const std::string& dir_prefix) {
    return RemoveTenantLocalPolicy("", dir_prefix);
  }

  /// File-backed variants (the paper's deployment keeps policies in
  /// system and local policy files); named by their path.
  util::VoidResult AddSystemPolicyFile(const std::string& path);
  util::VoidResult SetLocalPolicyFile(const std::string& dir_prefix,
                                      const std::string& path);

  /// Drop all policies — global and every tenant's (tests).
  void Clear();

  // --- tenant namespaces (DESIGN.md §14) -----------------------------------
  // All snapshots are compiled through the content-addressed IrStore, so
  // the shared layer — and any tenant-local policy that is structurally
  // identical under the same provenance name — is one compiled object no
  // matter how many tenants reference it.

  /// Create an (empty) tenant namespace.  Idempotent; the tenant becomes
  /// resolvable immediately with the purely-global policy view.
  util::VoidResult AddTenant(const std::string& tenant);

  /// Remove a tenant and unpublish its snapshot; returns false if unknown.
  bool RemoveTenant(const std::string& tenant);

  bool HasTenant(std::string_view tenant) const;
  std::vector<std::string> TenantNames() const;
  std::size_t tenant_count() const;

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

  /// Retrieve and compose the policies protecting `object_path` in a
  /// namespace, for the interpreted engine.  System-wide policies come
  /// first (globals, then the tenant's); local policies follow the
  /// directory chain root→leaf (more-specific policies later, consistent
  /// with ordered evaluation precedence of earlier == higher-priority
  /// policies).  An unknown tenant sees the global layer alone.
  eacl::ComposedPolicy PoliciesForTenant(std::string_view tenant,
                                         const std::string& object_path) const;
  eacl::ComposedPolicy PoliciesFor(const std::string& object_path) const {
    return PoliciesForTenant("", object_path);
  }

  /// Version counter bumped by every mutation; used for cache invalidation
  /// and as the staleness guard of the published table.
  std::uint64_t version() const { return version_.load(); }

  // --- compiled snapshot publication (DESIGN.md §9) -------------------------

  /// Bind the compiler inputs and publish the first snapshots.  Called by
  /// GaaApi construction; harmless to rebind (last bind wins).
  void BindEngine(EngineBinding binding);

  /// A namespace's currently published snapshot — one atomic shared_ptr
  /// load, no lock.  Null before BindEngine.  An unknown (or empty) tenant
  /// resolves to the default namespace — the unknown-host request is then
  /// governed by the global policy set, never left unpoliced.  Holding the
  /// returned shared_ptr pins the published table it came from; release it
  /// promptly (per-request scope) so superseded snapshots are freed.
  std::shared_ptr<const PolicySnapshot> CurrentSnapshotFor(
      std::string_view tenant) const;
  std::shared_ptr<const PolicySnapshot> CurrentSnapshot() const {
    return CurrentSnapshotFor("");
  }

  /// Hot-path accessor: the published snapshot, recompiled first (cold,
  /// mutex-guarded) when `registry_version` says routines were registered
  /// after the last compile or the table lags the sources.  Returns null —
  /// caller falls back to the interpreter — when the engine is bound to a
  /// different registry or the store is in parse-on-retrieve (ablation)
  /// mode.
  std::shared_ptr<const PolicySnapshot> FreshSnapshotFor(
      std::string_view tenant, const ConditionRegistry* registry,
      std::uint64_t registry_version);
  std::shared_ptr<const PolicySnapshot> FreshSnapshot(
      const ConditionRegistry* registry, std::uint64_t registry_version) {
    return FreshSnapshotFor("", registry, registry_version);
  }

  /// When enabled, PoliciesFor re-parses the stored policy *text* on every
  /// retrieval instead of returning the pre-parsed form.  This models the
  /// paper's implementation, which read and translated the policy files on
  /// each request — the cost its §9 policy caching was meant to remove.  The
  /// A1 ablation benchmarks flip this switch.  Also disables the compiled
  /// snapshot path (FreshSnapshot returns null) so the ablation measures
  /// the interpreted pipeline.
  void SetParseOnRetrieve(bool enabled) { parse_on_retrieve_ = enabled; }
  bool parse_on_retrieve() const { return parse_on_retrieve_; }

  /// The global layer's policy counts.
  std::size_t system_policy_count() const;
  std::size_t local_policy_count() const;

  /// Split "/a/b/c.html" into its directory chain: "/", "/a", "/a/b".
  static std::vector<std::string> DirectoryChain(const std::string& object_path);

  /// Render the global policy set back to EACL text (policy-officer
  /// export; round-trips through the parser).
  std::string ExportSystemPolicies() const;
  std::optional<std::string> ExportLocalPolicy(
      const std::string& dir_prefix) const;

 private:
  /// One stored policy: the pre-parsed form, the text parse-on-retrieve
  /// re-reads, and the provenance name ("system#0", a path, "local:/x").
  struct PolicySource {
    eacl::Eacl policy;
    std::string text;
    std::string name;
  };

  /// One namespace's own policy layer (compiled forms live in the
  /// published snapshots).
  struct NamespaceSources {
    std::vector<PolicySource> system;
    std::map<std::string, PolicySource> locals;  // by directory prefix
  };

  /// Every namespace's snapshot, published as one immutable object.
  struct Published {
    /// Keyed by namespace; the default namespace is the "" row.
    std::map<std::string, std::shared_ptr<const PolicySnapshot>, std::less<>>
        snapshots;
    /// The "" row, so a default-namespace read needs no map lookup.
    const PolicySnapshot* default_snapshot = nullptr;
    /// version_ at publish: the staleness guard FreshSnapshotFor checks.
    std::uint64_t source_version = 0;

    /// The namespace's snapshot; unknown tenants get the default one.
    const PolicySnapshot* Find(std::string_view tenant) const;
  };

  /// The default namespace's row, which "" keeps first in `sources_`.
  const NamespaceSources& GlobalLocked() const {
    return sources_.begin()->second;
  }

  /// The layers a namespace sees, in evaluation order: the global row,
  /// then the tenant's own row (null for "" or an unknown tenant).
  std::array<const NamespaceSources*, 2> LayersLocked(
      std::string_view tenant) const;

  /// Compile one namespace's snapshot through the IrStore; `mu_` held.
  std::shared_ptr<const PolicySnapshot> BuildSnapshotLocked(
      const std::string& tenant);

  /// The one republication funnel, `mu_` held; a no-op until an engine is
  /// bound.  Rebuilds every namespace (`only` null: a global change moves
  /// what all of them see) or just `*only`, keeping every other
  /// namespace's snapshot object — and so its memos — and publishes the
  /// new table.
  void RepublishLocked(const std::string* only);

  /// Bump version() and republish after a mutation of namespace `tenant`.
  void CommitLocked(const std::string& tenant);

  /// The compile-environment identity fed to IrStore::Intern: mixes the
  /// registry pointer + change version and the metrics registry, so a
  /// rebind or routine (un)registration can never serve stale IR.
  std::uint64_t CompileEnvKeyLocked() const;

  mutable std::mutex mu_;
  /// Namespace → its own layer; the "" row (the global layer) always
  /// exists.  Guarded by mu_.
  std::map<std::string, NamespaceSources, std::less<>> sources_{
      {"", NamespaceSources{}}};
  std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> parse_on_retrieve_{false};

  EngineBinding binding_;  // guarded by mu_
  /// Content-addressed compile cache shared by every namespace's builds.
  eacl::IrStore ir_store_;
  /// The published table (null before BindEngine).  Readers load a
  /// shared_ptr: lock-free publication, reference-counted reclamation.
  std::atomic<std::shared_ptr<const Published>> published_;
};

}  // namespace gaa::core
