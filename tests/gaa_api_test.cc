// Evaluation-semantics tests for the GAA core (paper §2 and §6; DESIGN.md §5).
#include "gaa/api.h"

#include <gtest/gtest.h>

#include "conditions/builtin.h"
#include "testing/helpers.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

class GaaApiTest : public ::testing::Test {
 protected:
  GaaApiTest() : api_(&store_, rig_.services) {
    // Synthetic conditions with controllable outcomes and visible side
    // effects — the semantics tests must not depend on builtin behaviour.
    api_.registry().Register(
        "pre_cond_true", "*",
        [this](const eacl::Condition&, const RequestContext&, EvalServices&) {
          ++true_evals_;
          return EvalOutcome::Yes();
        });
    api_.registry().Register(
        "pre_cond_false", "*",
        [this](const eacl::Condition&, const RequestContext&, EvalServices&) {
          ++false_evals_;
          return EvalOutcome::No();
        });
    api_.registry().Register(
        "pre_cond_unknown", "*",
        [](const eacl::Condition&, const RequestContext&, EvalServices&) {
          return EvalOutcome::Unevaluated("deliberately unevaluated");
        });
    api_.registry().Register(
        "rr_cond_probe", "*",
        [this](const eacl::Condition& cond, const RequestContext& ctx,
               EvalServices&) {
          rr_calls_.push_back(std::string(cond.value) + ":" +
                              (ctx.request_granted.value_or(false) ? "granted"
                                                                   : "denied"));
          return EvalOutcome::Yes();
        });
    api_.registry().Register(
        "rr_cond_fail", "*",
        [](const eacl::Condition&, const RequestContext&, EvalServices&) {
          return EvalOutcome::No("action failed");
        });
    api_.registry().Register(
        "mid_cond_true", "*",
        [](const eacl::Condition&, const RequestContext&, EvalServices&) {
          return EvalOutcome::Yes();
        });
    api_.registry().Register(
        "mid_cond_false", "*",
        [](const eacl::Condition&, const RequestContext&, EvalServices&) {
          return EvalOutcome::No();
        });
    api_.registry().Register(
        "post_cond_probe", "*",
        [this](const eacl::Condition&, const RequestContext& ctx,
               EvalServices&) {
          post_outcomes_.push_back(ctx.stats.succeeded);
          return EvalOutcome::Yes();
        });
  }

  AuthzResult Check(const std::string& system_text,
                    const std::string& local_text,
                    const std::string& object = "/x",
                    const std::string& op = "GET") {
    store_.Clear();
    if (!system_text.empty()) {
      auto r = store_.AddSystemPolicy(system_text);
      EXPECT_TRUE(r.ok()) << r.error().ToString();
    }
    if (!local_text.empty()) {
      auto r = store_.SetLocalPolicy("/", local_text);
      EXPECT_TRUE(r.ok()) << r.error().ToString();
    }
    ctx_ = MakeContext("10.0.0.1", object, op);
    return api_.Authorize(object, RequestedRight{"apache", op}, ctx_);
  }

  TestRig rig_;
  PolicyStore store_;
  GaaApi api_;
  RequestContext ctx_;
  int true_evals_ = 0;
  int false_evals_ = 0;
  std::vector<std::string> rr_calls_;
  std::vector<bool> post_outcomes_;
};

TEST_F(GaaApiTest, EmptyPolicyDeniesClosedWorld) {
  auto authz = Check("", "");
  EXPECT_EQ(authz.status, Tristate::kNo);
  EXPECT_FALSE(authz.applicable);
}

TEST_F(GaaApiTest, UnconditionalPositiveGrants) {
  auto authz = Check("", "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  EXPECT_TRUE(authz.applicable);
}

TEST_F(GaaApiTest, UnconditionalNegativeDenies) {
  auto authz = Check("", "neg_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
  EXPECT_TRUE(authz.applicable);
}

TEST_F(GaaApiTest, RightMatchingFiltersEntries) {
  auto authz = Check("", "pos_access_right apache POST\n");
  EXPECT_EQ(authz.status, Tristate::kNo);  // GET not covered
  EXPECT_FALSE(authz.applicable);
  authz = Check("", "pos_access_right apache POST\n", "/x", "POST");
  EXPECT_EQ(authz.status, Tristate::kYes);
}

TEST_F(GaaApiTest, FailedPreconditionSkipsEntry) {
  auto authz = Check("",
                     "neg_access_right apache *\n"
                     "pre_cond_false local x\n"
                     "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  EXPECT_EQ(false_evals_, 1);
}

TEST_F(GaaApiTest, OrderedPrecedenceFirstEntryWins) {
  auto deny_first = Check("",
                          "neg_access_right apache *\n"
                          "pos_access_right apache *\n");
  EXPECT_EQ(deny_first.status, Tristate::kNo);
  auto grant_first = Check("",
                           "pos_access_right apache *\n"
                           "neg_access_right apache *\n");
  EXPECT_EQ(grant_first.status, Tristate::kYes);
}

TEST_F(GaaApiTest, PreBlockIsOrderedConjunctionWithShortCircuit) {
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "pre_cond_false local first\n"
                     "pre_cond_true local second\n");
  EXPECT_EQ(authz.status, Tristate::kNo);  // entry skipped, nothing else
  // Short-circuit: the second condition must not run.
  EXPECT_EQ(false_evals_, 1);
  EXPECT_EQ(true_evals_, 0);
}

TEST_F(GaaApiTest, UnregisteredConditionYieldsMaybe) {
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "pre_cond_never_registered local x\n");
  EXPECT_EQ(authz.status, Tristate::kMaybe);
  ASSERT_EQ(authz.unevaluated.size(), 1u);
  EXPECT_EQ(authz.unevaluated[0].type, "pre_cond_never_registered");
}

TEST_F(GaaApiTest, MaybeEntryStopsTheScan) {
  // A later unconditional grant cannot override an uncertain earlier entry.
  auto authz = Check("",
                     "neg_access_right apache *\n"
                     "pre_cond_unknown local x\n"
                     "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kMaybe);
}

TEST_F(GaaApiTest, FailAfterUnknownMakesBlockFail) {
  // NO anywhere in the block wins over an earlier unevaluated condition:
  // "at least one of the conditions fails" == NO.
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "pre_cond_unknown local x\n"
                     "pre_cond_false local y\n"
                     "pos_access_right apache GET\n");
  EXPECT_EQ(authz.status, Tristate::kYes);  // entry 1 skipped; entry 2 grants
}

TEST_F(GaaApiTest, RequestResultConditionsFireOnGrant) {
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "pre_cond_true local x\n"
                     "rr_cond_probe local tag1\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  ASSERT_EQ(rr_calls_.size(), 1u);
  EXPECT_EQ(rr_calls_[0], "tag1:granted");
}

TEST_F(GaaApiTest, RequestResultConditionsFireOnDeny) {
  auto authz = Check("",
                     "neg_access_right apache *\n"
                     "rr_cond_probe local tag2\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
  ASSERT_EQ(rr_calls_.size(), 1u);
  EXPECT_EQ(rr_calls_[0], "tag2:denied");
}

TEST_F(GaaApiTest, FailedRrConjoinsIntoGrant) {
  // "The conjunction of the intermediate result and [status] is stored in
  // the authorization status": a failed action degrades a grant to NO.
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "rr_cond_fail local x\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
}

TEST_F(GaaApiTest, FailedRrKeepsDenyDenied) {
  auto authz = Check("",
                     "neg_access_right apache *\n"
                     "rr_cond_fail local x\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
}

TEST_F(GaaApiTest, NarrowSystemDenialSkipsLocal) {
  auto authz = Check(
      "eacl_mode 1\nneg_access_right * *\n",
      "pos_access_right apache *\nrr_cond_probe local local_action\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
  // The local side must not have run: no rr action fired from it.
  EXPECT_TRUE(rr_calls_.empty());
}

TEST_F(GaaApiTest, NarrowRequiresBothSides) {
  auto authz = Check("eacl_mode 1\npos_access_right apache *\n",
                     "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  authz = Check("eacl_mode 1\npos_access_right apache *\n",
                "neg_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
}

TEST_F(GaaApiTest, ExpandEitherSideGrants) {
  auto authz = Check("eacl_mode 0\npos_access_right apache *\n",
                     "neg_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  authz = Check("eacl_mode 0\nneg_access_right apache *\n",
                "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  authz = Check("eacl_mode 0\nneg_access_right apache *\n",
                "neg_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
}

TEST_F(GaaApiTest, StopIgnoresLocal) {
  auto authz = Check("eacl_mode 2\nneg_access_right apache *\n",
                     "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kNo);
  authz = Check("eacl_mode 2\npos_access_right apache *\n",
                "neg_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
}

TEST_F(GaaApiTest, InapplicableSystemSideDefersToLocal) {
  // System-wide entry conditioned on something false: not applicable;
  // the local policy alone decides (the §7.1 shape at low threat).
  auto authz = Check(
      "eacl_mode 1\nneg_access_right * *\npre_cond_false local x\n",
      "pos_access_right apache *\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
}

TEST_F(GaaApiTest, MultipleLocalPoliciesConjoin) {
  store_.Clear();
  ASSERT_TRUE(store_.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_TRUE(store_.SetLocalPolicy(
                      "/private",
                      "neg_access_right apache *\npre_cond_true local x\n")
                  .ok());
  ctx_ = MakeContext("10.0.0.1", "/private/doc", "GET");
  auto authz = api_.Authorize("/private/doc", RequestedRight{"apache", "GET"},
                              ctx_);
  EXPECT_EQ(authz.status, Tristate::kNo);  // root grants ∧ private denies
  ctx_ = MakeContext("10.0.0.1", "/public/doc", "GET");
  authz = api_.Authorize("/public/doc", RequestedRight{"apache", "GET"}, ctx_);
  EXPECT_EQ(authz.status, Tristate::kYes);
}

TEST_F(GaaApiTest, GrantCollectsMidAndPostConditions) {
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "mid_cond_true local a\n"
                     "post_cond_probe local b\n");
  EXPECT_EQ(authz.status, Tristate::kYes);
  ASSERT_EQ(authz.mid_conditions.size(), 1u);
  ASSERT_EQ(authz.post_conditions.size(), 1u);
}

TEST_F(GaaApiTest, ExecutionControlPhase) {
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "mid_cond_true local a\n");
  EXPECT_EQ(api_.ExecutionControl(authz, ctx_), Tristate::kYes);

  authz = Check("",
                "pos_access_right apache *\n"
                "mid_cond_false local a\n");
  EXPECT_EQ(api_.ExecutionControl(authz, ctx_),
            Tristate::kNo);  // abort the operation
}

TEST_F(GaaApiTest, ExecutionControlWithNoMidConditionsIsYes) {
  auto authz = Check("", "pos_access_right apache *\n");
  EXPECT_EQ(api_.ExecutionControl(authz, ctx_), Tristate::kYes);
}

TEST_F(GaaApiTest, PostExecutionSeesOperationOutcome) {
  auto authz = Check("",
                     "pos_access_right apache *\n"
                     "post_cond_probe local p\n");
  api_.PostExecutionActions(authz, ctx_, /*operation_succeeded=*/true);
  api_.PostExecutionActions(authz, ctx_, /*operation_succeeded=*/false);
  ASSERT_EQ(post_outcomes_.size(), 2u);
  EXPECT_TRUE(post_outcomes_[0]);
  EXPECT_FALSE(post_outcomes_[1]);
}

TEST_F(GaaApiTest, PostExecutionWithNoConditionsIsYes) {
  auto authz = Check("", "pos_access_right apache *\n");
  EXPECT_EQ(api_.PostExecutionActions(authz, ctx_, true), Tristate::kYes);
}

TEST_F(GaaApiTest, TraceRecordsEvaluationOrder) {
  ASSERT_TRUE(store_
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_true local one\n"
                                  "pre_cond_true local two\n"
                                  "rr_cond_probe local three\n"
                                  "mid_cond_true local four\n"
                                  "post_cond_probe local five\n")
                  .ok());
  std::vector<CondTrace> trace;
  ctx_ = MakeContext("10.0.0.1", "/x", "GET");
  ctx_.explain = &trace;
  auto authz = api_.Authorize("/x", RequestedRight{"apache", "GET"}, ctx_);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].cond.value, "one");
  EXPECT_EQ(trace[1].cond.value, "two");
  EXPECT_EQ(trace[2].cond.value, "three");
  EXPECT_EQ(trace[2].phase, eacl::CondPhase::kRequestResult);

  // Phases 3 and 4 append to the same trace.
  api_.ExecutionControl(authz, ctx_);
  api_.PostExecutionActions(authz, ctx_, /*operation_succeeded=*/true);
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[3].cond.value, "four");
  EXPECT_EQ(trace[3].phase, eacl::CondPhase::kMid);
  EXPECT_EQ(trace[4].cond.value, "five");
  EXPECT_EQ(trace[4].phase, eacl::CondPhase::kPost);
}

TEST_F(GaaApiTest, InitializeFromConfigBindsBuiltins) {
  RoutineCatalog catalog;
  cond::RegisterBuiltinRoutines(catalog);
  GaaApi api(&store_, rig_.services);
  auto init = api.Initialize(catalog, cond::DefaultConfigText(), "");
  ASSERT_TRUE(init.ok()) << init.error().ToString();
  EXPECT_NE(api.registry().Find("pre_cond_regex", "gnu"), nullptr);
  EXPECT_NE(api.registry().Find("pre_cond_accessid", "USER"), nullptr);
}

TEST_F(GaaApiTest, InitializeRejectsUnknownRoutine) {
  RoutineCatalog catalog;
  GaaApi api(&store_, rig_.services);
  auto init = api.Initialize(
      catalog, "condition pre_cond_x local builtin:not_there\n", "");
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.error().code, util::ErrorCode::kNotFound);
}

TEST_F(GaaApiTest, LocalConfigOverridesSystemBinding) {
  RoutineCatalog catalog;
  catalog.Add("make:no", [](const std::map<std::string, std::string>&) {
    return [](const eacl::Condition&, const RequestContext&, EvalServices&) {
      return EvalOutcome::No();
    };
  });
  catalog.Add("make:yes", [](const std::map<std::string, std::string>&) {
    return [](const eacl::Condition&, const RequestContext&, EvalServices&) {
      return EvalOutcome::Yes();
    };
  });
  GaaApi api(&store_, rig_.services);
  ASSERT_TRUE(api.Initialize(catalog, "condition pre_cond_x local make:no\n",
                             "condition pre_cond_x local make:yes\n")
                  .ok());
  store_.Clear();
  ASSERT_TRUE(store_
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_x local v\n")
                  .ok());
  ctx_ = MakeContext();
  auto authz = api.Authorize("/x", RequestedRight{"apache", "GET"}, ctx_);
  EXPECT_EQ(authz.status, Tristate::kYes);  // local binding won
}

}  // namespace
}  // namespace gaa::core
