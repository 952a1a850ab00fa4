#include "gaa/policy_store.h"

#include <gtest/gtest.h>

#include "gaa/registry.h"

namespace gaa::core {
namespace {

TEST(DirectoryChain, Splits) {
  EXPECT_EQ(PolicyStore::DirectoryChain("/a/b/c.html"),
            (std::vector<std::string>{"/", "/a", "/a/b"}));
  EXPECT_EQ(PolicyStore::DirectoryChain("/index.html"),
            (std::vector<std::string>{"/"}));
  EXPECT_EQ(PolicyStore::DirectoryChain("/"),
            (std::vector<std::string>{"/"}));
  EXPECT_EQ(PolicyStore::DirectoryChain("relative"),
            (std::vector<std::string>{"/"}));
}

TEST(PolicyStore, RejectsBadPolicyText) {
  PolicyStore store;
  EXPECT_FALSE(store.AddSystemPolicy("garbage here\n").ok());
  EXPECT_FALSE(store.SetLocalPolicy("/", "pre_cond_x local v\n").ok());
  EXPECT_EQ(store.system_policy_count(), 0u);
  EXPECT_EQ(store.local_policy_count(), 0u);
}

TEST(PolicyStore, ComposesSystemAndLocal) {
  PolicyStore store;
  ASSERT_TRUE(store
                  .AddSystemPolicy("eacl_mode 1\nneg_access_right * *\n"
                                   "pre_cond_system_threat_level local =high\n")
                  .ok());
  ASSERT_TRUE(store.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  auto composed = store.PoliciesFor("/index.html");
  EXPECT_EQ(composed.mode, eacl::CompositionMode::kNarrow);
  EXPECT_EQ(composed.system_policies.size(), 1u);
  EXPECT_EQ(composed.local_policies.size(), 1u);
}

TEST(PolicyStore, LocalPoliciesFollowDirectoryChain) {
  PolicyStore store;
  ASSERT_TRUE(store.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_TRUE(store
                  .SetLocalPolicy("/private",
                                  "pos_access_right apache GET\n"
                                  "pre_cond_accessid USER apache *\n")
                  .ok());
  auto root_only = store.PoliciesFor("/index.html");
  EXPECT_EQ(root_only.local_policies.size(), 1u);
  auto both = store.PoliciesFor("/private/report.html");
  EXPECT_EQ(both.local_policies.size(), 2u);
  // Root policy first (root→leaf order).
  EXPECT_EQ(both.local_policies[0].entries[0].pre.size(), 0u);
  EXPECT_EQ(both.local_policies[1].entries[0].pre.size(), 1u);
}

TEST(PolicyStore, ReplaceAndRemoveLocal) {
  PolicyStore store;
  ASSERT_TRUE(store.SetLocalPolicy("/d", "pos_access_right a b\n").ok());
  ASSERT_TRUE(store.SetLocalPolicy("/d", "neg_access_right a b\n").ok());
  EXPECT_EQ(store.local_policy_count(), 1u);
  auto composed = store.PoliciesFor("/d/x");
  ASSERT_EQ(composed.local_policies.size(), 1u);
  EXPECT_FALSE(composed.local_policies[0].entries[0].right.positive);
  EXPECT_TRUE(store.RemoveLocalPolicy("/d"));
  EXPECT_FALSE(store.RemoveLocalPolicy("/d"));
  EXPECT_EQ(store.local_policy_count(), 0u);
}

TEST(PolicyStore, VersionBumpsOnEveryMutation) {
  PolicyStore store;
  auto v0 = store.version();
  ASSERT_TRUE(store.AddSystemPolicy("pos_access_right a b\n").ok());
  auto v1 = store.version();
  EXPECT_GT(v1, v0);
  ASSERT_TRUE(store.SetLocalPolicy("/", "pos_access_right a b\n").ok());
  auto v2 = store.version();
  EXPECT_GT(v2, v1);
  store.RemoveLocalPolicy("/");
  EXPECT_GT(store.version(), v2);
}

TEST(PolicyStore, FailedMutationDoesNotBumpVersion) {
  PolicyStore store;
  auto v0 = store.version();
  EXPECT_FALSE(store.AddSystemPolicy("nonsense\n").ok());
  EXPECT_EQ(store.version(), v0);
}

TEST(PolicyStore, EveryMutatorRepublishesTheSnapshotAtomically) {
  PolicyStore store;
  ConditionRegistry registry;
  store.BindEngine({&registry, nullptr, nullptr});
  ASSERT_TRUE(store.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_TRUE(store.AddSystemPolicy("pos_access_right a b\n").ok());
  auto s0 = store.CurrentSnapshot();
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(s0->locals().size(), 1u);
  EXPECT_EQ(s0->system().size(), 1u);

  // Regression (stale-snapshot fix): RemoveLocalPolicy republishes before
  // returning, so the published snapshot can never lag its sources.
  EXPECT_TRUE(store.RemoveLocalPolicy("/"));
  auto s1 = store.CurrentSnapshot();
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->locals().empty());
  EXPECT_GT(s1->store_version(), s0->store_version());

  // Clear() drops globals and every tenant and republishes the same way.
  ASSERT_TRUE(
      store.SetTenantLocalPolicy("t", "/", "neg_access_right a b\n").ok());
  ASSERT_NE(store.CurrentSnapshotFor("t"), nullptr);
  EXPECT_EQ(store.CurrentSnapshotFor("t")->tenant(), "t");
  store.Clear();
  auto s2 = store.CurrentSnapshot();
  ASSERT_NE(s2, nullptr);
  EXPECT_TRUE(s2->system().empty());
  EXPECT_TRUE(s2->locals().empty());
  EXPECT_EQ(store.tenant_count(), 0u);
  // The removed tenant resolves to the default namespace again.
  EXPECT_EQ(store.CurrentSnapshotFor("t")->tenant(), "");
}

TEST(PolicyStore, TenantMutationLeavesOtherTenantSnapshotsUntouched) {
  PolicyStore store;
  ConditionRegistry registry;
  store.BindEngine({&registry, nullptr, nullptr});
  ASSERT_TRUE(store.AddTenant("a").ok());
  ASSERT_TRUE(store.AddTenant("b").ok());
  auto a0 = store.CurrentSnapshotFor("a");
  auto b0 = store.CurrentSnapshotFor("b");
  auto d0 = store.CurrentSnapshot();
  ASSERT_TRUE(
      store.SetTenantLocalPolicy("a", "/", "pos_access_right x y\n").ok());
  auto a1 = store.CurrentSnapshotFor("a");
  auto b1 = store.CurrentSnapshotFor("b");
  EXPECT_NE(a1.get(), a0.get());
  ASSERT_EQ(a1->locals().size(), 1u);
  // Tenant b's and the default namespace's snapshot objects are reused
  // verbatim — a's reload compiled and published only a's namespace.
  EXPECT_EQ(b1.get(), b0.get());
  EXPECT_EQ(store.CurrentSnapshot().get(), d0.get());
}

TEST(PolicyStore, StopModeDropsLocalAtComposition) {
  PolicyStore store;
  ASSERT_TRUE(
      store.AddSystemPolicy("eacl_mode 2\npos_access_right apache *\n").ok());
  ASSERT_TRUE(store.SetLocalPolicy("/", "neg_access_right * *\n").ok());
  auto composed = store.PoliciesFor("/x");
  EXPECT_EQ(composed.mode, eacl::CompositionMode::kStop);
  EXPECT_TRUE(composed.local_policies.empty());
}

}  // namespace
}  // namespace gaa::core
