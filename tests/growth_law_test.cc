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
  testing::TestRig rig;
  core::PolicyStore store;
  core::GaaApi api(&store, rig.services);
  core::RoutineCatalog catalog;
  cond::RegisterBuiltinRoutines(catalog);
  EXPECT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());
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

}  // namespace
}  // namespace gaa
