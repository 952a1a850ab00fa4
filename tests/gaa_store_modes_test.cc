// Tests for PolicyStore's paper-faithful parse-on-retrieve mode (the §9
// caching rationale: the paper's gaa_get_object_policy_info re-read and
// re-translated policy files per request).
#include <gtest/gtest.h>

#include "gaa/api.h"
#include "gaa/policy_store.h"
#include "testing/helpers.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

TEST(ParseOnRetrieve, SameDecisionsAsPreParsed) {
  const char* system_text =
      "eacl_mode 1\nneg_access_right * *\n"
      "pre_cond_sym local f\n";  // inert (condition false)
  const char* local_text =
      "neg_access_right apache GET\npre_cond_sym local t\n"
      "pos_access_right apache *\n";

  // "" installs the policies in the default namespace; "acme" installs
  // them as a tenant's own layer over an empty global one.
  for (std::string tenant : {"", "acme"}) {
    for (bool parse_on_retrieve : {false, true}) {
      TestRig rig;
      PolicyStore store;
      store.SetParseOnRetrieve(parse_on_retrieve);
      ASSERT_TRUE(store.AddTenantSystemPolicy(tenant, system_text).ok());
      ASSERT_TRUE(store.SetTenantLocalPolicy(tenant, "/", local_text).ok());
      GaaApi api(&store, rig.services);
      api.registry().Register(
          "pre_cond_sym", "*",
          [](const eacl::Condition& cond, const RequestContext&,
             EvalServices&) {
            return cond.value == "t" ? EvalOutcome::Yes() : EvalOutcome::No();
          });
      auto ctx = MakeContext();
      ctx.tenant = tenant;
      EXPECT_EQ(api.Authorize("/x", {"apache", "GET"}, ctx).status,
                Tristate::kNo)
          << "tenant=" << tenant << " parse_on_retrieve=" << parse_on_retrieve;
      ctx = MakeContext();
      ctx.tenant = tenant;
      EXPECT_EQ(api.Authorize("/x", {"apache", "POST"}, ctx).status,
                Tristate::kYes)
          << "tenant=" << tenant << " parse_on_retrieve=" << parse_on_retrieve;
    }
  }
}

TEST(ParseOnRetrieve, RetrievalReflectsRemovalAndReplacement) {
  PolicyStore store;
  store.SetParseOnRetrieve(true);
  ASSERT_TRUE(store.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  EXPECT_EQ(store.PoliciesFor("/x").local_policies.size(), 1u);
  ASSERT_TRUE(store
                  .SetLocalPolicy("/", "neg_access_right apache *\n"
                                       "pos_access_right apache GET\n")
                  .ok());
  auto composed = store.PoliciesFor("/x");
  ASSERT_EQ(composed.local_policies.size(), 1u);
  EXPECT_EQ(composed.local_policies[0].entries.size(), 2u);
  EXPECT_TRUE(store.RemoveLocalPolicy("/"));
  EXPECT_TRUE(store.PoliciesFor("/x").local_policies.empty());
}

TEST(ParseOnRetrieve, ClearDropsTexts) {
  PolicyStore store;
  store.SetParseOnRetrieve(true);
  ASSERT_TRUE(store.AddSystemPolicy("pos_access_right a b\n").ok());
  ASSERT_TRUE(store.SetLocalPolicy("/", "pos_access_right a b\n").ok());
  store.Clear();
  auto composed = store.PoliciesFor("/x");
  EXPECT_TRUE(composed.system_policies.empty());
  EXPECT_TRUE(composed.local_policies.empty());
}

TEST(ParseOnRetrieve, ModeStillComposesFromSystemText) {
  PolicyStore store;
  store.SetParseOnRetrieve(true);
  ASSERT_TRUE(
      store.AddSystemPolicy("eacl_mode 2\npos_access_right apache *\n").ok());
  ASSERT_TRUE(store.SetLocalPolicy("/", "neg_access_right * *\n").ok());
  auto composed = store.PoliciesFor("/x");
  EXPECT_EQ(composed.mode, eacl::CompositionMode::kStop);
  EXPECT_TRUE(composed.local_policies.empty());  // stop drops local
}

}  // namespace
}  // namespace gaa::core
