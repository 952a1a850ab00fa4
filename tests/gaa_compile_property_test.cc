// Differential property test of the compiled policy engine (DESIGN.md §9):
// the compiled IR pipeline must be observably identical to the interpreted
// AST pipeline — same YES/NO/MAYBE, same attribution, same evaluation trace
// byte for byte — across random policies over the *builtin* condition
// routines (including their compile-time specializations) and random
// request contexts.  Both engines record their traces through
// RequestContext::explain; a compiled memo hit evaluates nothing, so it is
// held to the decision alone and must leave its trace empty.
//
// Two fully separate rigs (own SystemState, IDS, audit log, policy store)
// receive the identical policy text and the identical request sequence, so
// effectful conditions (blacklist updates, event recording) mutate each
// rig's state in lockstep and stay comparable.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "conditions/builtin.h"
#include "gaa/api.h"
#include "testing/helpers.h"
#include "util/rng.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

/// One engine under test: a full GAA stack initialized with the builtin
/// routine catalog (so specializers and purity traits are registered).
struct Engine {
  explicit Engine(EngineMode mode) : api(&store, rig.services) {
    RoutineCatalog catalog;
    cond::RegisterBuiltinRoutines(catalog);
    auto init = api.Initialize(catalog, cond::DefaultConfigText(), "");
    EXPECT_TRUE(init.ok());
    api.set_engine_mode(mode);
  }

  TestRig rig;
  PolicyStore store;
  GaaApi api;
};

// --- random policy generation over builtin conditions -----------------------

std::string RandomPreCondition(util::Rng& rng) {
  switch (rng.NextBelow(12)) {
    case 0:
      return std::string("pre_cond_accessid USER apache ") +
             (rng.NextBool(0.4) ? "*" : (rng.NextBool(0.5) ? "alice" : "bob"));
    case 1:
      return std::string("pre_cond_accessid HOST local ") +
             (rng.NextBool(0.7) ? "10.0.0.0/8 192.168.1.0/24" : "not-a-cidr");
    case 2:
      return "pre_cond_accessid GROUP local BadGuys";
    case 3:
      // Simulated clock sits at 12:00; mix inside / outside / wrapping /
      // var-indirected windows.
      switch (rng.NextBelow(4)) {
        case 0:
          return "pre_cond_time local 09:00-17:00";
        case 1:
          return "pre_cond_time local 01:00-02:00";
        case 2:
          return "pre_cond_time local 22:00-06:00";
        default:
          return "pre_cond_time local var:maintenance_window";
      }
    case 4:
      switch (rng.NextBelow(3)) {
        case 0:
          return "pre_cond_location local 10.0.0.0/8";
        case 1:
          return "pre_cond_location local 203.0.113.0/24 garbage";
        default:
          return "pre_cond_location local var:allowed_nets";
      }
    case 5:
      switch (rng.NextBelow(4)) {
        case 0:
          return "pre_cond_system_threat_level local <=medium";
        case 1:
          return "pre_cond_system_threat_level local =low";
        case 2:
          return "pre_cond_system_threat_level local >high";
        default:
          return "pre_cond_system_threat_level local =banana";  // bad literal
      }
    case 6:
      return "pre_cond_regex gnu *phf* *test-cgi*";
    case 7:
      switch (rng.NextBelow(4)) {
        case 0:
          return "pre_cond_expr local url_length <100";
        case 1:
          return "pre_cond_expr local cgi_input_length >10";
        case 2:
          return "pre_cond_expr local slash_count >=2";
        default:
          return "pre_cond_expr local query_length >var:limit";
      }
    case 8:
      return std::string("pre_cond_var local mode ") +
             (rng.NextBool(0.5) ? "lockdown" : "normal");
    case 9:
      return "pre_cond_firewall local";
    case 10:
      return "pre_cond_redirect local https://auth.example.com/login";
    default:
      return std::string("pre_cond_param local user_agent ") +
             (rng.NextBool(0.5) ? "*Nikto*" : "*Mozilla*");
  }
}

std::string RandomRrCondition(util::Rng& rng) {
  switch (rng.NextBelow(3)) {
    case 0:
      return "rr_cond_audit local on:any/diff";
    case 1:
      return "rr_cond_record_event local on:failure/deny.%ip/30";
    default:
      return "rr_cond_update_log local on:failure/BadGuys/info:ip";
  }
}

std::string RandomPolicyText(util::Rng& rng) {
  std::string text;
  std::size_t entries = 1 + rng.NextBelow(5);
  for (std::size_t i = 0; i < entries; ++i) {
    text += rng.NextBool(0.6) ? "pos_access_right " : "neg_access_right ";
    text += rng.NextBool(0.8) ? "apache " : "* ";
    text += rng.NextBool(0.5) ? "*" : (rng.NextBool(0.5) ? "GET" : "POST");
    text += "\n";
    std::size_t conds = rng.NextBelow(4);
    for (std::size_t c = 0; c < conds; ++c) {
      text += RandomPreCondition(rng);
      text += "\n";
    }
    if (rng.NextBool(0.35)) {
      text += RandomRrCondition(rng);
      text += "\n";
    }
  }
  return text;
}

RequestContext RandomContext(util::Rng& rng) {
  static const char* kIps[] = {"10.0.0.1", "10.9.9.9", "192.168.1.5",
                               "203.0.113.9"};
  static const char* kObjects[] = {"/index.html", "/cgi-bin/phf",
                                   "/private/report.html",
                                   "/private/logs/system.log"};
  RequestContext ctx =
      MakeContext(kIps[rng.NextBelow(4)], kObjects[rng.NextBelow(4)],
                  rng.NextBool(0.8) ? "GET" : "POST");
  if (rng.NextBool(0.4)) {
    ctx.authenticated = true;
    ctx.user = rng.NextBool(0.5) ? "alice" : "bob";
  }
  if (rng.NextBool(0.3)) {
    ctx.query = rng.NextBool(0.5) ? "x=1" : std::string(40, 'a');
    ctx.raw_url = ctx.object + "?" + ctx.query;
  }
  return ctx;
}

// --- result comparison -------------------------------------------------------

void ExpectSameCondition(const eacl::Condition& a, const eacl::Condition& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.def_auth, b.def_auth);
  EXPECT_EQ(a.value, b.value);
}

void ExpectSameTrace(const std::vector<CondTrace>& interp,
                     const std::vector<CondTrace>& compiled) {
  ASSERT_EQ(interp.size(), compiled.size());
  for (std::size_t i = 0; i < interp.size(); ++i) {
    ExpectSameCondition(interp[i].cond, compiled[i].cond);
    EXPECT_EQ(interp[i].phase, compiled[i].phase);
    EXPECT_EQ(interp[i].outcome.status, compiled[i].outcome.status);
    EXPECT_EQ(interp[i].outcome.evaluated, compiled[i].outcome.evaluated);
    // Byte-identical details prove the specializers reproduce the generic
    // routines exactly, not just their tristate result.
    EXPECT_EQ(interp[i].outcome.detail, compiled[i].outcome.detail);
  }
}

void ExpectSameResult(const AuthzResult& interp, const AuthzResult& compiled) {
  EXPECT_EQ(interp.status, compiled.status);
  EXPECT_EQ(interp.applicable, compiled.applicable);

  ASSERT_EQ(interp.attribution.has_value(), compiled.attribution.has_value());
  if (interp.attribution.has_value()) {
    EXPECT_EQ(interp.attribution->policy, compiled.attribution->policy);
    EXPECT_EQ(interp.attribution->entry, compiled.attribution->entry);
    EXPECT_EQ(interp.attribution->condition, compiled.attribution->condition);
    EXPECT_EQ(interp.attribution->status, compiled.attribution->status);
  }

  ASSERT_EQ(interp.unevaluated.size(), compiled.unevaluated.size());
  for (std::size_t i = 0; i < interp.unevaluated.size(); ++i) {
    ExpectSameCondition(interp.unevaluated[i], compiled.unevaluated[i]);
  }
  ASSERT_EQ(interp.mid_conditions.size(), compiled.mid_conditions.size());
  for (std::size_t i = 0; i < interp.mid_conditions.size(); ++i) {
    ExpectSameCondition(interp.mid_conditions[i], compiled.mid_conditions[i]);
  }
  ASSERT_EQ(interp.post_conditions.size(), compiled.post_conditions.size());
  for (std::size_t i = 0; i < interp.post_conditions.size(); ++i) {
    ExpectSameCondition(interp.post_conditions[i], compiled.post_conditions[i]);
  }
}

class CompiledEngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CompiledEngineDifferential, MatchesInterpreterOnRandomPolicies) {
  util::Rng rng(GetParam() * 7919 + 17);
  // 10 seeds x 4 policy sets x 30 contexts = 1200 compared pairs.
  int memo_hits = 0;
  int traces_compared = 0;
  for (int round = 0; round < 4; ++round) {
    Engine interp(EngineMode::kInterpreted);
    Engine compiled(EngineMode::kCompiled);

    // Identical ambient state on both sides: some rounds set the variables
    // the var:-indirected conditions read (those stay un-specialized).
    if (rng.NextBool(0.5)) {
      for (auto* rig : {&interp.rig, &compiled.rig}) {
        rig->state.SetVariable("limit", "20");
        rig->state.SetVariable("mode", "lockdown");
        rig->state.SetVariable("allowed_nets", "10.0.0.0/8");
      }
    }

    std::string system_text;
    if (rng.NextBool(0.5)) {
      system_text = "eacl_mode 1\n" + RandomPolicyText(rng);
      ASSERT_TRUE(interp.store.AddSystemPolicy(system_text).ok());
      ASSERT_TRUE(compiled.store.AddSystemPolicy(system_text).ok());
    }
    std::string root_text = RandomPolicyText(rng);
    ASSERT_TRUE(interp.store.SetLocalPolicy("/", root_text).ok());
    ASSERT_TRUE(compiled.store.SetLocalPolicy("/", root_text).ok());
    if (rng.NextBool(0.5)) {
      std::string private_text = RandomPolicyText(rng);
      ASSERT_TRUE(interp.store.SetLocalPolicy("/private", private_text).ok());
      ASSERT_TRUE(compiled.store.SetLocalPolicy("/private", private_text).ok());
    }

    for (int i = 0; i < 30; ++i) {
      std::vector<CondTrace> trace_i;
      std::vector<CondTrace> trace_c;
      RequestContext ctx_i = RandomContext(rng);
      RequestContext ctx_c = ctx_i;  // identical request on both engines
      ctx_i.explain = &trace_i;
      ctx_c.explain = &trace_c;
      RequestedRight right{"apache", ctx_i.operation};

      const std::uint64_t hits_before = compiled.api.decision_cache().hits();
      AuthzResult a = interp.api.Authorize(ctx_i.object, right, ctx_i);
      AuthzResult b = compiled.api.Authorize(ctx_c.object, right, ctx_c);
      ExpectSameResult(a, b);
      if (compiled.api.decision_cache().hits() == hits_before) {
        ExpectSameTrace(trace_i, trace_c);
        ++traces_compared;
      } else {
        EXPECT_TRUE(trace_c.empty());
        ++memo_hits;
      }

      // Phases 3 and 4 consume the saved mid/post blocks (kept in source
      // form by the compiler); they must agree too, trace included.
      trace_i.clear();
      trace_c.clear();
      EXPECT_EQ(interp.api.ExecutionControl(a, ctx_i),
                compiled.api.ExecutionControl(b, ctx_c));
      bool success = a.status == Tristate::kYes;
      EXPECT_EQ(interp.api.PostExecutionActions(a, ctx_i, success),
                compiled.api.PostExecutionActions(b, ctx_c, success));
      ExpectSameTrace(trace_i, trace_c);

      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "diverged on policy:\n"
                      << system_text << "---\n"
                      << root_text << "context: ip="
                      << ctx_i.client_ip.ToString() << " object=" << ctx_i.object
                      << " op=" << ctx_i.operation
                      << " auth=" << ctx_i.authenticated << " user="
                      << ctx_i.user;
        return;
      }
    }

    // Cross-check the rigs' side effects stayed in lockstep: both engines
    // must have fired the same blacklist updates and IDS reports.
    EXPECT_EQ(interp.rig.state.GroupSize("BadGuys"),
              compiled.rig.state.GroupSize("BadGuys"));
    EXPECT_EQ(interp.rig.ids.reports.size(), compiled.rig.ids.reports.size());
  }
  std::cout << "seed " << GetParam() << ": " << memo_hits
            << " compiled memo hits, " << traces_compared
            << " traces compared\n";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEngineDifferential,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace gaa::core
