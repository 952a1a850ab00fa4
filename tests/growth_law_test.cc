// Growth laws: a keyed structure grows its key from N to 10N and must keep
// its declared law (constant, linear with stated bytes per unit, or capped).
//
// Heap accounting replaces the global operator new/delete and tracks live
// bytes through malloc_usable_size, so the figure is real under ASan and
// TSan too (their runtimes intercept malloc, not this hook).  The hook is
// process-wide, which is why this is its own binary.  The hook also counts
// allocations, for laws stated per operation rather than per byte.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "conditions/builtin.h"
#include "eacl/compile.h"
#include "eacl/parser.h"
#include "gaa/api.h"
#include "ids/ids.h"
#include "telemetry/metrics.h"
#include "testing/helpers.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocations{0};

void* Track(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* Allocate(std::size_t size) { return Track(std::malloc(size ? size : 1)); }

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return Track(std::aligned_alloc(a, (size + a - 1) / a * a));
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return OrThrow(Allocate(n)); }
void* operator new[](std::size_t n) { return OrThrow(Allocate(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return OrThrow(AllocateAligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return OrThrow(AllocateAligned(n, a));
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace gaa {
namespace {

/// perfbench static_get's policy shape: `deny` host screens, then a grant.
std::string DenyListText(int deny) {
  std::string text = "eacl_mode 1\n";
  for (int i = 0; i < deny; ++i) {
    text += "neg_access_right * *\npre_cond_accessid HOST local 10." +
            std::to_string(i / 250) + "." + std::to_string(i % 250) +
            ".0/24\n";
  }
  text += "pos_access_right * *\n";
  return text;
}

eacl::Eacl DenyList(int deny) {
  auto parsed = eacl::ParseEacl(DenyListText(deny));
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).take();
}

struct Growth {
  std::int64_t bytes = 0;   ///< live heap added by the compile
  std::size_t series = 0;   ///< registry series it created
};

/// Compile a deny list into a fresh registry (four
/// eacl_entry_decisions_total series per entry) and measure the heap the
/// compiled policy and its series hold.
Growth CompileDenyList(int deny) {
  const eacl::Eacl policy = DenyList(deny);
  telemetry::MetricRegistry registry;
  const std::int64_t before = g_live_bytes.load();
  auto compiled = eacl::CompilePolicy(policy, "system:0",
                                      eacl::CompileEnv{nullptr, &registry});
  Growth g;
  g.bytes = g_live_bytes.load() - before;
  g.series = registry.List().size();
  return g;
}

TEST(GrowthLaw, RegistrySeriesAreLinear) {
  const Growth small = CompileDenyList(300);  // 301 entries, as static_get
  EXPECT_EQ(small.series, 301u * 4 + 1);      // + one gaa_cond_eval_us
  ASSERT_GT(small.bytes, 0) << "heap hook counted nothing";
  // Stop before the 10x case when the law is broken: a quadratic registry
  // needs gigabytes there.
  ASSERT_LE(small.bytes, 4 << 20) << "301-entry compile grew the heap by "
                                  << small.bytes << " bytes";

  const Growth large = CompileDenyList(3000);
  const double small_per =
      static_cast<double>(small.bytes) / static_cast<double>(small.series);
  const double large_per =
      static_cast<double>(large.bytes) / static_cast<double>(large.series);
  std::cout << "bytes per series: " << small_per << " at 300 entries ("
            << small.bytes << " bytes), " << large_per << " at 3000 ("
            << large.bytes << " bytes)\n";
  EXPECT_LE(large_per, 1.5 * small_per);
}

/// A GaaApi with the builtin routines over its own store.
struct ApiStack {
  explicit ApiStack(telemetry::MetricRegistry* metrics = nullptr)
      : api(&store, [&] {
          core::EvalServices services = rig.services;
          services.metrics = metrics;
          return services;
        }()) {
    core::RoutineCatalog catalog;
    cond::RegisterBuiltinRoutines(catalog);
    EXPECT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());
  }

  testing::TestRig rig;
  core::PolicyStore store;
  core::GaaApi api;
};

struct MemoGrowth {
  double bytes_per_slot = 0;
  std::size_t slots = 0;
  std::int64_t hit_allocations = 0;
};

/// Serve `kClients` distinct clients once each through a deny list of
/// `deny` pure host screens plus a grant, so each request misses and fills
/// one memo slot, then repeat one request as a warm hit.
MemoGrowth FillMemo(int deny) {
  constexpr int kClients = 256;
  ApiStack stack;
  core::PolicyStore& store = stack.store;
  core::GaaApi& api = stack.api;
  EXPECT_TRUE(store.AddSystemPolicy(DenyListText(deny)).ok());
  const core::RequestedRight right{"apache", "GET"};
  auto authorize = [&](int client) {
    core::RequestContext ctx = testing::MakeContext(
        "192.168." + std::to_string(client / 250) + "." +
        std::to_string(client % 250));
    EXPECT_EQ(api.Authorize(ctx.object, right, ctx).status,
              util::Tristate::kYes);
  };

  authorize(kClients);  // warm-up: compiles the snapshot, fills one slot
  const std::size_t slots_before = api.decision_cache().size();
  const std::int64_t bytes_before = g_live_bytes.load();
  for (int client = 0; client < kClients; ++client) authorize(client);
  MemoGrowth g;
  g.slots = api.decision_cache().size() - slots_before;
  g.bytes_per_slot = static_cast<double>(g_live_bytes.load() - bytes_before) /
                     static_cast<double>(g.slots);

  core::RequestContext ctx = testing::MakeContext("192.168.0.7");
  const std::uint64_t hits = api.decision_cache().hits();
  const std::int64_t allocations_before = g_allocations.load();
  const core::AuthzResult hit = api.Authorize(ctx.object, right, ctx);
  g.hit_allocations = g_allocations.load() - allocations_before;
  EXPECT_EQ(api.decision_cache().hits(), hits + 1) << "not a memo hit";
  EXPECT_EQ(hit.status, util::Tristate::kYes);
  return g;
}

TEST(GrowthLaw, MemoSlotIsConstantInPolicySize) {
  const MemoGrowth small = FillMemo(1);
  const MemoGrowth large = FillMemo(300);  // 301 entries, as static_get
  std::cout << "memo bytes per slot: " << small.bytes_per_slot
            << " at 1 deny entry, " << large.bytes_per_slot << " at 300 ("
            << large.slots << " slots); warm-hit allocations: "
            << small.hit_allocations << " and " << large.hit_allocations
            << "\n";
  ASSERT_GT(small.slots, 0u);
  EXPECT_EQ(small.slots, large.slots);
  EXPECT_LE(large.bytes_per_slot, 1.25 * small.bytes_per_slot);
  EXPECT_EQ(small.hit_allocations, large.hit_allocations);
}

/// A ten-entry host screen whose addresses are unique to `reload`, so every
/// reload compiles fresh IR that a retained snapshot would pin.  Fixed
/// width, so every text is the same size.
std::string ReloadText(int reload) {
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "neg_access_right * *\npre_cond_accessid HOST local 10." +
            std::to_string(100 + i) + "." + std::to_string(100 + reload / 100) +
            "." + std::to_string(100 + reload % 100) + "\n";
  }
  return text + "pos_access_right * *\n";
}

TEST(GrowthLaw, GlobalReloadsKeepTheHeapConstant) {
  constexpr int kReloads = 30;
  telemetry::MetricRegistry metrics;
  ApiStack stack(&metrics);
  const core::RequestedRight right{"apache", "GET"};
  int reload = 0;
  auto reload_and_read = [&](int count) {
    for (int i = 0; i < count; ++i, ++reload) {
      ASSERT_TRUE(stack.store.SetLocalPolicy("/", ReloadText(reload)).ok());
      core::RequestContext ctx = testing::MakeContext();
      EXPECT_EQ(stack.api.Authorize(ctx.object, right, ctx).status,
                util::Tristate::kYes);
    }
  };

  reload_and_read(2);  // warm-up: series, memo slot, IR store table
  const std::int64_t baseline = g_live_bytes.load();
  reload_and_read(kReloads);
  const std::int64_t after_n = g_live_bytes.load() - baseline;
  reload_and_read(9 * kReloads);
  const std::int64_t after_10n = g_live_bytes.load() - baseline;
  std::cout << "heap growth over " << kReloads << " reloads: " << after_n
            << " bytes, over " << 10 * kReloads << ": " << after_10n << "\n";
  // Constant: the 9N extra reloads add less than one superseded snapshot
  // with its compiled IR (tens of KB for this policy) would pin.
  EXPECT_LE(after_10n - after_n, 1024);
}

TEST(GrowthLaw, RemovedTenantsReturnTheHeapToBaseline) {
  constexpr int kTenants = 64;
  telemetry::MetricRegistry metrics;
  ApiStack stack(&metrics);
  auto add_and_remove = [&](int count) {
    for (int t = 0; t < count; ++t) {
      const std::string tenant = "tenant" + std::to_string(t);
      ASSERT_TRUE(
          stack.store.SetTenantLocalPolicy(tenant, "/", ReloadText(t)).ok());
      ASSERT_NE(stack.store.CurrentSnapshotFor(tenant), nullptr);
    }
    // Every republish, a removal's included, sweeps the IR store's dead
    // slots: the removed tenants' IR leaves no table entry behind.
    for (int t = 0; t < count; ++t) {
      EXPECT_TRUE(stack.store.RemoveTenant("tenant" + std::to_string(t)));
    }
  };

  // Warm-up: one full round creates the tenant-local series and sizes the
  // hash tables for kTenants live namespaces (bucket arrays never shrink).
  // A global reload then compiles, so the baseline holds no dead IR slot
  // even on a store that sweeps only when it compiles.
  add_and_remove(kTenants);
  ASSERT_TRUE(stack.store.SetLocalPolicy("/", ReloadText(1000)).ok());
  const std::int64_t baseline = g_live_bytes.load();
  add_and_remove(kTenants);
  const std::int64_t residue = g_live_bytes.load() - baseline;
  std::cout << "heap residue after adding and removing " << kTenants
            << " tenants: " << residue << " bytes\n";
  EXPECT_EQ(stack.store.tenant_count(), 0u);
  EXPECT_LE(residue, 1024);
}

TEST(GrowthLaw, IdsReportsKeepTheHeapConstant) {
  constexpr int kReports = 10'000;
  util::SimulatedClock clock(0);
  core::SystemState state(&clock);
  telemetry::MetricRegistry metrics;
  ids::IntrusionDetectionSystem ids(&state, &clock);
  ids.AttachMetrics(&metrics);
  core::IdsReport report;
  report.kind = core::ReportKind::kDetectedAttack;
  report.object = "/cgi-bin/phf";
  report.attack_type = "cgi_exploit";
  report.severity = 8;
  report.confidence = 1.0;
  int source = 0;
  // One report per distinct source, 50 µs apart: the 10N reports span 5 s
  // of the 60 s threat window, so every alert is still in it.
  auto file = [&](int count) {
    for (int i = 0; i < count; ++i, ++source) {
      report.source_ip = "10." + std::to_string(source >> 16) + "." +
                         std::to_string(source >> 8 & 255) + "." +
                         std::to_string(source & 255);
      clock.Advance(50);
      ids.Report(report);
    }
  };

  file(64);  // warm-up: report series, threat gauges, adaptive variables
  ASSERT_EQ(state.threat_level(), core::ThreatLevel::kHigh);
  const std::int64_t baseline = g_live_bytes.load();
  file(kReports);
  const std::int64_t after_n = g_live_bytes.load() - baseline;
  file(9 * kReports);
  const std::int64_t after_10n = g_live_bytes.load() - baseline;
  std::cout << "heap growth over " << kReports << " IDS reports: " << after_n
            << " bytes, over " << 10 * kReports << ": " << after_10n << "\n";
  EXPECT_EQ(state.threat_level(), core::ThreatLevel::kHigh);
  EXPECT_EQ(testing::IdsReportCount(metrics), 64u + 10 * kReports);
  // Constant: a kept record of each report would add tens of bytes for
  // every one of the 9N extra reports.
  EXPECT_LE(after_10n - after_n, 1024);
}

}  // namespace
}  // namespace gaa
