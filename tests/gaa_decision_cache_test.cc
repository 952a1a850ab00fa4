// Decision memoization (DESIGN.md §9.4): admission rules, version fencing,
// attribution-counter fidelity on the fast path, and the memo's telemetry
// mirrors.
#include <gtest/gtest.h>

#include "conditions/builtin.h"
#include "gaa/api.h"
#include "gaa/decision_cache.h"
#include "telemetry/metrics.h"
#include "testing/helpers.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

TEST(DecisionCacheUnit, VersionFencesStaleAnswers) {
  DecisionCache cache(8);
  AuthzResult result;
  result.status = Tristate::kYes;
  cache.Put("k", /*snapshot_version=*/1, result, nullptr);

  auto hit = cache.Get("k", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.status, Tristate::kYes);

  // Same key, newer snapshot: the entry is fenced out — a policy change
  // invalidates every cached decision without any explicit flush.
  EXPECT_EQ(cache.Get("k", 2), nullptr);
  EXPECT_EQ(cache.Get("unknown", 1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  cache.Clear();
  EXPECT_EQ(cache.Get("k", 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DecisionCacheUnit, ZeroSlotsDisables) {
  DecisionCache cache(0);
  EXPECT_EQ(cache.capacity(), 0u);
}

struct Stack {
  Stack() : api(&store, rig.services) {
    RoutineCatalog catalog;
    cond::RegisterBuiltinRoutines(catalog);
    EXPECT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());
  }

  AuthzResult Go(const RequestContext& base) {
    RequestContext ctx = base;
    return api.Authorize(ctx.object, RequestedRight{"apache", ctx.operation},
                         ctx);
  }

  TestRig rig;
  PolicyStore store;
  GaaApi api;
};

TEST(DecisionMemo, PureTerminalDecisionsAreCached) {
  Stack s;
  ASSERT_TRUE(s.store
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_accessid USER apache alice\n")
                  .ok());
  RequestContext alice = MakeContext();
  alice.authenticated = true;
  alice.user = "alice";

  EXPECT_EQ(s.Go(alice).status, Tristate::kYes);
  EXPECT_EQ(s.api.decision_cache().insertions(), 1u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.Go(alice).status, Tristate::kYes);
  EXPECT_EQ(s.api.decision_cache().hits(), 5u);

  // A different subject is a different key — decided fresh (NO: wrong user),
  // then cached on its own.
  RequestContext bob = alice;
  bob.user = "bob";
  EXPECT_EQ(s.Go(bob).status, Tristate::kNo);
  EXPECT_EQ(s.Go(bob).status, Tristate::kNo);
  EXPECT_EQ(s.api.decision_cache().insertions(), 2u);
}

TEST(DecisionMemo, MaybeIsNeverCached) {
  Stack s;
  ASSERT_TRUE(s.store
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_accessid USER apache alice\n")
                  .ok());
  // Unauthenticated: the accessid condition stays unevaluated => MAYBE,
  // which must be re-derived every time so the 401 translation always sees
  // the fresh unevaluated-conditions list (credentials may arrive next).
  RequestContext anon = MakeContext();
  for (int i = 0; i < 4; ++i) {
    AuthzResult out = s.Go(anon);
    EXPECT_EQ(out.status, Tristate::kMaybe);
    EXPECT_EQ(out.unevaluated.size(), 1u);
  }
  EXPECT_EQ(s.api.decision_cache().insertions(), 0u);
  EXPECT_EQ(s.api.decision_cache().hits(), 0u);
}

TEST(DecisionMemo, ThreatFencedDecisionsAdmitBehindEpochFence) {
  Stack s;
  ASSERT_TRUE(s.store
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_system_threat_level local <high\n")
                  .ok());
  RequestContext ctx = MakeContext();
  EXPECT_EQ(s.Go(ctx).status, Tristate::kYes);
  // A literal threat-level comparison specializes to kThreatFenced: the
  // decision memoizes, pinned to the threat epoch it was computed under.
  EXPECT_EQ(s.api.decision_cache().insertions(), 1u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.Go(ctx).status, Tristate::kYes);
  EXPECT_EQ(s.api.decision_cache().hits(), 3u);

  // A threat transition bumps the SystemState epoch, fencing the entry out
  // exactly as a policy reload's snapshot version would: the next request
  // re-evaluates against the live level and is denied.
  s.rig.state.SetThreatLevel(ThreatLevel::kHigh);
  EXPECT_EQ(s.Go(ctx).status, Tristate::kNo);
  EXPECT_EQ(s.api.decision_cache().insertions(), 2u);

  // Decay back to low is a transition too — never a stale lockdown.
  s.rig.state.SetThreatLevel(ThreatLevel::kLow);
  EXPECT_EQ(s.Go(ctx).status, Tristate::kYes);
}

TEST(DecisionMemo, VarIndirectThreatConditionsStayVolatile) {
  Stack s;
  ASSERT_TRUE(
      s.store
          .SetLocalPolicy("/",
                          "pos_access_right apache *\n"
                          "pre_cond_system_threat_level local <=var:ceiling\n")
          .ok());
  s.rig.state.SetVariable("ceiling", "high");
  RequestContext ctx = MakeContext();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.Go(ctx).status, Tristate::kYes);
  // The "var:" form reads a SystemState variable outside any fence — it
  // must never be admitted, or a variable change could be served stale.
  EXPECT_EQ(s.api.decision_cache().insertions(), 0u);
}

TEST(DecisionMemo, EffectConditionsBlockAdmissionAndKeepFiring) {
  Stack s;
  ASSERT_TRUE(s.store
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "rr_cond_audit local on:any/memo\n")
                  .ok());
  RequestContext ctx = MakeContext();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.Go(ctx).status, Tristate::kYes);
  // Each request must produce its own audit record — memoizing would
  // swallow the paper's intrusion-response actions.
  EXPECT_EQ(s.rig.audit.CountCategory("memo"), 3u);
  EXPECT_EQ(s.api.decision_cache().insertions(), 0u);
}

TEST(CacheTelemetry, DecisionCacheCountersExported) {
  // The decision memo mirrors its accounting into the shared registry as
  // gaa_decision_cache_*.
  telemetry::MetricRegistry registry;
  TestRig rig;
  rig.services.metrics = &registry;
  PolicyStore store;
  GaaApi api(&store, rig.services);
  RoutineCatalog catalog;
  cond::RegisterBuiltinRoutines(catalog);
  ASSERT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());

  ASSERT_TRUE(store
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_accessid HOST local 10.0.0.0/8\n")
                  .ok());
  RequestContext ctx = MakeContext();
  for (int i = 0; i < 4; ++i) {
    RequestContext c = ctx;
    api.Authorize("/index.html", RequestedRight{"apache", "GET"}, c);
  }
  EXPECT_EQ(registry.GetCounter("gaa_decision_cache_misses_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("gaa_decision_cache_insertions_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("gaa_decision_cache_hits_total")->Value(), 3u);
}

}  // namespace
}  // namespace gaa::core
