// The GAA-API facade: initialization plus the three per-request phases
// (paper Figure 1 and §6).
//
//   init                gaa_initialize — parse the system/local configuration
//                       files, instantiate condition routines from the
//                       catalog and register them.
//   phase 2a            GetObjectPolicyInfo — retrieve the system-wide and
//                       local policies protecting an object, compose them
//                       (§2.1).
//   phase 2c            CheckAuthorization — ordered evaluation of pre- and
//                       request-result conditions; returns YES / NO / MAYBE,
//                       its attribution and the conditions left unevaluated
//                       (drives 401 / redirect translation).  The
//                       condition-by-condition trace is collected only when
//                       the caller sets RequestContext::explain.
//   phase 3             ExecutionControl — evaluate mid-conditions against
//                       live operation statistics; NO aborts the operation.
//   phase 4             PostExecutionActions — evaluate post-conditions with
//                       the operation's success/failure status.
//
// Evaluation semantics (normative; see DESIGN.md §5):
//   * Entries are scanned first-to-last; only entries whose right covers the
//     requested right are considered.
//   * A pre-condition block is an ordered conjunction.  Evaluation stops at
//     the first failed condition (the entry then *does not apply* and the
//     scan continues); otherwise any unevaluated condition makes the block
//     MAYBE, else YES.
//   * Block YES ⇒ the entry decides: grant for a positive right, deny for a
//     negative right.  Block MAYBE ⇒ the policy's answer is MAYBE (the entry
//     might apply; later entries cannot soundly override it).
//   * Request-result conditions of the deciding entry are then evaluated
//     (each checks its own on:success / on:failure trigger) and their result
//     is conjoined into the authorization status.
//   * A policy none of whose entries applies is "not applicable"; sides
//     (system-wide vs local) conjoin their applicable policies, and the
//     composition mode combines the two sides (eacl::CombineDecisions).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eacl/ast.h"
#include "eacl/compile.h"
#include "eacl/composition.h"
#include "gaa/config.h"
#include "gaa/context.h"
#include "gaa/decision_cache.h"
#include "gaa/policy_store.h"
#include "gaa/registry.h"
#include "gaa/services.h"
#include "util/status.h"
#include "util/tristate.h"

namespace gaa::telemetry {
class Counter;
class Histogram;
}  // namespace gaa::telemetry

namespace gaa::core {

/// One condition's evaluation, appended to RequestContext::explain when a
/// caller asks for the trace (policy_tools explain, the differential test).
struct CondTrace {
  eacl::Condition cond;
  EvalOutcome outcome;
  eacl::CondPhase phase = eacl::CondPhase::kPre;
};

/// Which evaluation pipeline Authorize uses (DESIGN.md §9).
enum class EngineMode {
  /// Walk the parsed EACL AST per request, resolving routines through the
  /// registry (the pre-compiler pipeline; kept as the differential oracle,
  /// E1's paper-faithful mode and the A1 ablation's baseline).
  kInterpreted,
  /// Evaluate the compiled IR published by the PolicyStore snapshot —
  /// lock-free lookup, pre-resolved evaluators, decision memoization.
  /// Falls back to the interpreter when no snapshot is available
  /// (parse-on-retrieve mode, or the store is bound to another engine).
  kCompiled,
};

class GaaApi {
 public:
  /// `store` and the services outlive the API object.
  GaaApi(PolicyStore* store, EvalServices services);

  /// Initialization phase: instantiate and register condition routines
  /// named by the system-wide and local configuration files.  Local
  /// bindings override system bindings for the same (type, authority).
  util::VoidResult Initialize(const RoutineCatalog& catalog,
                              std::string_view system_config_text,
                              std::string_view local_config_text);

  /// Direct registration (tests / embedded use).
  ConditionRegistry& registry() { return registry_; }
  EvalServices& services() { return services_; }

  // --- phase 2a -----------------------------------------------------------
  eacl::ComposedPolicy GetObjectPolicyInfo(const std::string& object_path);

  /// Tenant-scoped retrieval: the tenant's namespace (globals + tenant
  /// layer) composed for `object_path`.  "" is the default namespace.
  eacl::ComposedPolicy GetObjectPolicyInfo(const std::string& object_path,
                                           std::string_view tenant);

  // --- phase 2c -----------------------------------------------------------
  AuthzResult CheckAuthorization(const eacl::ComposedPolicy& policy,
                                 const RequestedRight& right,
                                 RequestContext& ctx);

  /// Convenience: 2a + 2c in one call.
  AuthzResult Authorize(const std::string& object_path,
                        const RequestedRight& right, RequestContext& ctx);

  // --- phase 3 ------------------------------------------------------------
  /// May be called repeatedly while the operation runs; ctx.stats carries
  /// the live statistics.  NO means "abort the operation now".
  util::Tristate ExecutionControl(const AuthzResult& authz,
                                  RequestContext& ctx);

  // --- phase 4 ------------------------------------------------------------
  util::Tristate PostExecutionActions(const AuthzResult& authz,
                                      RequestContext& ctx,
                                      bool operation_succeeded);

  // --- compiled engine (DESIGN.md §9) --------------------------------------
  void set_engine_mode(EngineMode mode) { engine_mode_ = mode; }
  EngineMode engine_mode() const { return engine_mode_; }

  /// Decision memoization rides on the compiled engine.
  const DecisionCache& decision_cache() const { return decision_cache_; }
  void ClearDecisionCache() { decision_cache_.Clear(); }

  /// Admission probe for the transport's inline fast path: true when an
  /// *anonymous* request (no credentials, no groups) for `right` on
  /// `object_path` from `client_ip` would be answered from the decision
  /// memo — i.e. a pure terminal YES/NO is already cached against the
  /// current snapshot.  Side-effect free and lock-free; false on any doubt
  /// (stale snapshot, interpreter mode), in which case the caller takes the
  /// ordinary worker path.
  bool DecisionIsMemoized(const std::string& object_path,
                          const RequestedRight& right,
                          util::Ipv4Address client_ip) const {
    return DecisionIsMemoized(object_path, right, client_ip, {});
  }

  /// Tenant-scoped probe: checks the tenant's snapshot and the memo keyed
  /// under its namespace ("" = default, identical to the overload above).
  bool DecisionIsMemoized(const std::string& object_path,
                          const RequestedRight& right,
                          util::Ipv4Address client_ip,
                          std::string_view tenant) const;

 private:
  struct BlockResult {
    util::Tristate status = util::Tristate::kYes;
    std::vector<eacl::Condition> unevaluated;
    /// The condition that settled the block: the failing condition on NO,
    /// the first MAYBE contributor otherwise (empty when the block was an
    /// unconditional YES).
    std::string deciding_condition;
  };

  struct PolicyAnswer {
    util::Tristate status = util::Tristate::kNo;
    bool applicable = false;
    DecisionAttribution attribution;  ///< valid when `applicable`
    /// Compiled engine: the entry `attribution` names (null otherwise).
    const eacl::CompiledEntry* entry = nullptr;
  };

  /// Evaluate one condition through the registry (unregistered ⇒
  /// unevaluated ⇒ MAYBE), appending to ctx.explain when set.  When metrics
  /// are attached, the evaluation is timed into the per-condition
  /// `gaa_cond_eval_us{cond,auth}` histogram.
  EvalOutcome EvalCondition(const eacl::Condition& cond,
                            eacl::CondPhase phase, RequestContext& ctx);

  /// Ordered conjunction of a block; stops at the first NO.
  BlockResult EvalBlock(const std::vector<eacl::Condition>& block,
                        eacl::CondPhase phase, RequestContext& ctx);

  PolicyAnswer EvalPolicy(const eacl::Eacl& policy,
                          const std::string& policy_name,
                          const RequestedRight& right, RequestContext& ctx,
                          AuthzResult* out);

  /// Memoizability of a compiled decision, joined across every condition
  /// evaluated on the way to it (DESIGN.md §12): kPure ⊔ kThreatFenced =
  /// kThreatFenced; anything ⊔ kUncacheable = kUncacheable.
  enum class MemoClass {
    kPure,          ///< admit with no fence
    kThreatFenced,  ///< admit pinned to the current threat epoch
    kUncacheable,   ///< a volatile/effect condition fired — never admit
  };

  static void JoinMemoClass(MemoClass* memo, CondPurity purity);

  // --- compiled-IR twins of the evaluators above ---------------------------
  // Same semantics, same trace/attribution output, but evaluators, metric
  // handles and purity classes come pre-resolved from the IR.  `memo`
  // starts kPure and is widened by every condition evaluated; the caller
  // memoizes the decision only if it ends at kPure or kThreatFenced.

  EvalOutcome EvalCompiledCond(const eacl::CompiledCond& cond,
                               RequestContext& ctx, MemoClass* memo);

  BlockResult EvalCompiledBlock(const std::vector<eacl::CompiledCond>& block,
                                eacl::CondPhase phase, RequestContext& ctx,
                                MemoClass* memo);

  PolicyAnswer EvalCompiledPolicy(const eacl::CompiledPolicy& policy,
                                  const RequestedRight& right,
                                  RequestContext& ctx, AuthzResult* out,
                                  MemoClass* memo);

  /// Compiled twin of CheckAuthorization over a snapshot's per-path view.
  /// `*attributed` receives the compiled entry the result's attribution
  /// names (null when none does).
  AuthzResult CheckAuthorizationCompiled(const eacl::CompiledComposition& view,
                                         const RequestedRight& right,
                                         RequestContext& ctx, MemoClass* memo,
                                         const eacl::CompiledEntry** attributed);

  /// Memo key: every input a kPure condition may read — requested right,
  /// object path, request identity, client address — joined unambiguously.
  static std::string DecisionKey(const std::string& object_path,
                                 const RequestedRight& right,
                                 const RequestContext& ctx);

  /// Interpreter and mid/post phases only (the compiled engine holds its
  /// handles): `eacl_entry_decisions_total{policy,entry,outcome}` looked up
  /// in the registry; `outcome_idx`: 0 yes, 1 no, 2 maybe, 3 miss
  /// (pre-block failed, entry skipped).  Null when metrics are detached.
  telemetry::Counter* EntryCounter(const std::string& policy, int entry,
                                   int outcome_idx);
  /// Per-condition latency histogram, looked up the same way.
  telemetry::Histogram* CondHistogram(const eacl::Condition& cond);

  PolicyStore* store_;
  EvalServices services_;
  ConditionRegistry registry_;
  EngineMode engine_mode_ = EngineMode::kCompiled;
  DecisionCache decision_cache_;
};

}  // namespace gaa::core
