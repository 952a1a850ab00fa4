// Growth laws: a keyed structure grows its key from N to 10N and must keep
// its declared law (constant, linear with stated bytes per unit, or capped).
//
// Heap accounting replaces the global operator new/delete and tracks live
// bytes through malloc_usable_size, so the figure is real under ASan and
// TSan too (their runtimes intercept malloc, not this hook).  The hook is
// process-wide, which is why this is its own binary.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "eacl/compile.h"
#include "eacl/parser.h"
#include "telemetry/metrics.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* Track(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
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
eacl::Eacl DenyList(int deny) {
  std::string text = "eacl_mode 1\n";
  for (int i = 0; i < deny; ++i) {
    text += "neg_access_right * *\npre_cond_accessid HOST local 10." +
            std::to_string(i / 250) + "." + std::to_string(i % 250) +
            ".0/24\n";
  }
  text += "pos_access_right * *\n";
  auto parsed = eacl::ParseEacl(text);
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

}  // namespace
}  // namespace gaa
