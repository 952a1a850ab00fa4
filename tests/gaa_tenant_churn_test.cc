// Tenant-table churn under concurrent load (DESIGN.md §14).  A mutator
// thread adds, reloads and removes tenant namespaces while reader threads
// authorize against two stable tenants with opposite policies; run under
// TSan in CI.  The invariants: a reader never observes the wrong tenant's
// answer (no cross-tenant memo bleed), and every snapshot the churn
// superseded is freed once the readers let go.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "conditions/builtin.h"
#include "gaa/api.h"
#include "gaa/policy_store.h"
#include "testing/helpers.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

constexpr const char* kGrant = "pos_access_right apache *\n";
constexpr const char* kDeny = "neg_access_right apache *\n";

struct Stack {
  Stack() : api(&store, rig.services) {
    RoutineCatalog catalog;
    cond::RegisterBuiltinRoutines(catalog);
    EXPECT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());
  }

  TestRig rig;
  PolicyStore store;
  GaaApi api;
};

TEST(TenantChurn, ConcurrentAddReloadRemoveKeepsNamespacesIsolated) {
  Stack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kGrant).ok());
  // Two stable tenants with opposite answers for the same object: any
  // cross-tenant bleed of a memoized decision flips one of them.
  ASSERT_TRUE(s.store.AddTenant("allow").ok());
  ASSERT_TRUE(s.store.SetTenantLocalPolicy("deny", "/", kDeny).ok());

  constexpr int kMutations = 400;
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  // One watch per mutation on the snapshot it published for its tenant.
  std::vector<std::weak_ptr<const PolicySnapshot>> published;
  published.reserve(kMutations);

  std::thread mutator([&] {
    for (int i = 0; i < kMutations; ++i) {
      const std::string name = "churn" + std::to_string(i % 8);
      switch (i % 4) {
        case 0:
          (void)s.store.AddTenant(name);
          break;
        case 1:
          (void)s.store.AddTenantSystemPolicy(name, kGrant);
          break;
        case 2:
          (void)s.store.SetTenantLocalPolicy(name, "/private", kDeny);
          break;
        default:
          (void)s.store.RemoveTenant(name);
          break;
      }
      published.push_back(s.store.CurrentSnapshotFor(name));
    }
    done.store(true, std::memory_order_release);
  });

  auto reader = [&] {
    RequestContext base = MakeContext();
    const RequestedRight right{"apache", "GET"};
    while (!done.load(std::memory_order_acquire)) {
      RequestContext a = base;
      a.tenant = "allow";
      if (s.api.Authorize(a.object, right, a).status != Tristate::kYes) {
        wrong.fetch_add(1);
      }
      RequestContext d = base;
      d.tenant = "deny";
      if (s.api.Authorize(d.object, right, d).status != Tristate::kNo) {
        wrong.fetch_add(1);
      }
      // Churned namespaces fall back to the global grant whether or not the
      // tenant exists at the instant of evaluation — never to another
      // tenant's overlay.
      RequestContext c = base;
      c.tenant = "churn" + std::to_string(7);
      if (s.api.Authorize(c.object, right, c).status != Tristate::kYes) {
        wrong.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);
  mutator.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0);

  // Readers released every snapshot they pinned; a quiescent global
  // mutation supersedes every namespace, so nothing the churn published
  // may outlive it.
  ASSERT_TRUE(s.store.SetLocalPolicy("/scratch", kGrant).ok());
  for (std::size_t i = 0; i < published.size(); ++i) {
    EXPECT_TRUE(published[i].expired()) << "mutation " << i;
  }

  // The stable namespaces survived the churn with their layers intact.
  EXPECT_TRUE(s.store.HasTenant("allow"));
  EXPECT_TRUE(s.store.HasTenant("deny"));
}

}  // namespace
}  // namespace gaa::core
