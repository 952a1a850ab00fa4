#include "workload/trace.h"

#include <gtest/gtest.h>

#include "http/request.h"
#include "workload/loadgen.h"

namespace gaa::workload {
namespace {

TEST(TraceGenerator, Deterministic) {
  TraceOptions options;
  options.seed = 99;
  options.count = 50;
  auto a = TraceGenerator(options).Generate();
  auto b = TraceGenerator(options).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].raw, b[i].raw);
    EXPECT_EQ(a[i].client_ip, b[i].client_ip);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

TEST(TraceGenerator, SeedChangesTrace) {
  TraceOptions a_options;
  a_options.seed = 1;
  TraceOptions b_options;
  b_options.seed = 2;
  auto a = TraceGenerator(a_options).Generate();
  auto b = TraceGenerator(b_options).Generate();
  bool any_different = false;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].raw != b[i].raw) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(TraceGenerator, AttackFractionRoughlyHolds) {
  TraceOptions options;
  options.count = 2000;
  options.attack_fraction = 0.25;
  auto trace = TraceGenerator(options).Generate();
  std::size_t attacks = 0;
  for (const auto& r : trace) {
    if (IsAttackKind(r.kind)) ++attacks;
  }
  double fraction = static_cast<double>(attacks) / trace.size();
  EXPECT_NEAR(fraction, 0.25, 0.05);
}

TEST(TraceGenerator, ZeroAttackFraction) {
  TraceOptions options;
  options.count = 200;
  options.attack_fraction = 0.0;
  for (const auto& r : TraceGenerator(options).Generate()) {
    EXPECT_FALSE(IsAttackKind(r.kind)) << RequestKindName(r.kind);
  }
}

TEST(TraceGenerator, BenignRequestsParseCleanly) {
  TraceOptions options;
  options.count = 200;
  options.attack_fraction = 0.0;
  for (const auto& r : TraceGenerator(options).Generate()) {
    auto parsed = http::ParseRequest(r.raw);
    EXPECT_TRUE(parsed.ok()) << r.raw;
  }
}

TEST(TraceGenerator, IllFormedRequestsActuallyFailParsing) {
  TraceGenerator gen({});
  for (int i = 0; i < 10; ++i) {
    auto r = gen.Make(RequestKind::kIllFormed);
    EXPECT_FALSE(http::ParseRequest(r.raw).ok()) << r.raw;
  }
}

TEST(TraceGenerator, AttackShapesMatchTheirSignatures) {
  TraceGenerator gen({});
  auto probe = gen.Make(RequestKind::kCgiProbe);
  EXPECT_TRUE(probe.raw.find("phf") != std::string::npos ||
              probe.raw.find("test-cgi") != std::string::npos);
  auto dos = gen.Make(RequestKind::kDosSlashes);
  EXPECT_NE(dos.raw.find("////////////////////"), std::string::npos);
  auto nimda = gen.Make(RequestKind::kNimdaPercent);
  EXPECT_NE(nimda.raw.find('%'), std::string::npos);
  auto overflow = gen.Make(RequestKind::kOverflowInput);
  auto parsed = http::ParseRequest(overflow.raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_GT(parsed.request->query.size(), 1000u);
}

TEST(TraceGenerator, ClientPoolsAreDisjoint) {
  TraceOptions options;
  options.count = 500;
  options.attack_fraction = 0.5;
  for (const auto& r : TraceGenerator(options).Generate()) {
    if (IsAttackKind(r.kind)) {
      EXPECT_EQ(r.client_ip.rfind("203.0.113.", 0), 0u) << r.client_ip;
    } else {
      EXPECT_EQ(r.client_ip.rfind("10.0.", 0), 0u) << r.client_ip;
    }
  }
}

TEST(VulnerabilityScan, KnownProbeThenUnknowns) {
  TraceGenerator gen({});
  auto scan = gen.VulnerabilityScan("203.0.113.42", 4);
  ASSERT_EQ(scan.size(), 5u);
  EXPECT_EQ(scan[0].kind, RequestKind::kCgiProbe);
  for (std::size_t i = 1; i < scan.size(); ++i) {
    EXPECT_EQ(scan[i].kind, RequestKind::kUnknownProbe);
    EXPECT_EQ(scan[i].client_ip, "203.0.113.42");
    // The unknown probes carry none of the known signature substrings.
    EXPECT_EQ(scan[i].raw.find("phf"), std::string::npos);
    EXPECT_EQ(scan[i].raw.find("test-cgi"), std::string::npos);
    EXPECT_EQ(scan[i].raw.find('%'), std::string::npos);
  }
}

TEST(RequestKindNames, AllNamed) {
  EXPECT_STREQ(RequestKindName(RequestKind::kStaticPage), "static_page");
  EXPECT_STREQ(RequestKindName(RequestKind::kUnknownProbe), "unknown_probe");
  EXPECT_TRUE(IsAttackKind(RequestKind::kDosSlashes));
  EXPECT_FALSE(IsAttackKind(RequestKind::kSearchCgi));
}

TEST(MixedScenario, NinetyPercentBenignOverTheWidenedAttackCorpus) {
  // perfbench's `mixed` workload draws from this mix: it must stay ~90%
  // benign and name every attack kind of the widened corpus.
  double benign_weight = 0, total_weight = 0;
  bool has_slow = false, has_smuggle = false, has_traversal = false,
       has_flood = false, has_poison = false;
  for (const auto& [kind, weight] : MixedScenario().mix) {
    total_weight += weight;
    if (!IsAttackKind(kind)) benign_weight += weight;
    if (kind == RequestKind::kSlowHeaders) has_slow = true;
    if (kind == RequestKind::kSmugglingProbe) has_smuggle = true;
    if (kind == RequestKind::kPathTraversal) has_traversal = true;
    if (kind == RequestKind::kHeaderFlood) has_flood = true;
    if (kind == RequestKind::kCachePoison) has_poison = true;
  }
  EXPECT_NEAR(benign_weight / total_weight, 0.9, 0.01);
  EXPECT_TRUE(has_slow);
  EXPECT_TRUE(has_smuggle);
  EXPECT_TRUE(has_traversal);
  EXPECT_TRUE(has_flood);
  EXPECT_TRUE(has_poison);
}

}  // namespace
}  // namespace gaa::workload
