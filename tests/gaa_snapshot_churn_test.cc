// Snapshot lifetime under churn (DESIGN.md §9.3): a superseded policy
// snapshot lives exactly as long as some reader's shared_ptr holds it.  It
// must never be freed while a concurrent reader still uses it
// (gaa_engine_test runs under ThreadSanitizer and ASan in CI, where a
// use-after-free is a hard failure), and it must be freed once the last
// reader lets go (growth_law_test holds the heap law).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "conditions/builtin.h"
#include "gaa/api.h"
#include "telemetry/metrics.h"
#include "testing/helpers.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

struct ChurnStack {
  ChurnStack() : api(&store, WireMetrics(rig, metrics)) {
    RoutineCatalog catalog;
    cond::RegisterBuiltinRoutines(catalog);
    EXPECT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());
  }

  static EvalServices& WireMetrics(TestRig& rig,
                                   telemetry::MetricRegistry& metrics) {
    rig.services.metrics = &metrics;
    return rig.services;
  }

  TestRig rig;
  telemetry::MetricRegistry metrics;
  PolicyStore store;
  GaaApi api;
};

TEST(SnapshotChurn, SupersededSnapshotIsFreedOnceReadersJoin) {
  ChurnStack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", "pos_access_right apache *\n").ok());

  constexpr int kReaders = 4;
  constexpr int kReloads = 300;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> decisions{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&s, &stop, &decisions] {
      while (!stop.load(std::memory_order_relaxed)) {
        RequestContext ctx = MakeContext("10.0.0.1", "/index.html", "GET");
        AuthzResult out = s.api.Authorize(
            "/index.html", RequestedRight{"apache", "GET"}, ctx);
        if (out.status == Tristate::kMaybe) {
          ADD_FAILURE() << "unconditional policy answered MAYBE";
          return;
        }
        decisions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Watch the snapshot the first reload publishes; every later reload
  // supersedes it while the readers keep authorizing.
  std::weak_ptr<const PolicySnapshot> superseded;
  for (int i = 0; i < kReloads; ++i) {
    const char* text = (i % 2 == 0) ? "neg_access_right apache *\n"
                                    : "pos_access_right apache *\n";
    ASSERT_TRUE(s.store.SetLocalPolicy("/", text).ok());
    if (i == 0) superseded = s.store.CurrentSnapshot();
  }

  while (decisions.load(std::memory_order_relaxed) <
         static_cast<std::uint64_t>(kReaders)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(decisions.load(), static_cast<std::uint64_t>(kReaders));

  // No reader holds it any more, and nothing else may.
  EXPECT_TRUE(superseded.expired());
  EXPECT_FALSE(s.store.CurrentSnapshot()->locals().empty());
}

}  // namespace
}  // namespace gaa::core
