// Small-surface API tests: the gaps between the big suites — parameter
// classification lookups, deterministic RNG, printers, facade edge cases,
// and the §3-item-2 abnormal-parameter reporting.
#include <gtest/gtest.h>

#include "eacl/parser.h"
#include "eacl/printer.h"
#include "gaa/context.h"
#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"
#include "util/rng.h"

namespace gaa {
namespace {

TEST(ParamLookup, AuthorityFiltering) {
  core::RequestContext ctx;
  ctx.AddParam("limit", "apache", "100");
  ctx.AddParam("limit", "sshd", "5");
  // Wildcard authority returns the first match in insertion order.
  ASSERT_NE(ctx.FindParam("limit"), nullptr);
  EXPECT_EQ(ctx.FindParam("limit")->value, "100");
  // Exact authority selects.
  ASSERT_NE(ctx.FindParam("limit", "sshd"), nullptr);
  EXPECT_EQ(ctx.FindParam("limit", "sshd")->value, "5");
  EXPECT_EQ(ctx.FindParam("limit", "ipsec"), nullptr);
}

TEST(ParamLookup, InGroupChecksUserAndGroups) {
  core::RequestContext ctx;
  ctx.user = "alice";
  ctx.groups = {"staff", "admins"};
  EXPECT_TRUE(ctx.InGroup("alice"));
  EXPECT_TRUE(ctx.InGroup("admins"));
  EXPECT_FALSE(ctx.InGroup("BadGuys"));
}

TEST(Rng, DeterministicAndSeedSensitive) {
  util::Rng a1(7), a2(7), b(8);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    auto x = a1.Next();
    EXPECT_EQ(x, a2.Next());
    if (x != b.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, RangesRespectBounds) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto below = rng.NextBelow(7);
    EXPECT_LT(below, 7u);
    auto in_range = rng.NextInRange(-5, 5);
    EXPECT_GE(in_range, -5);
    EXPECT_LE(in_range, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Printer, EntryAndCondition) {
  eacl::Condition cond{"pre_cond_time", "local", "09:00-17:00"};
  EXPECT_EQ(eacl::PrintCondition(cond), "pre_cond_time local 09:00-17:00");
  eacl::Condition bare{"pre_cond_x", "local", ""};
  EXPECT_EQ(eacl::PrintCondition(bare), "pre_cond_x local");

  eacl::Entry entry;
  entry.right = {false, "apache", "*"};
  entry.pre.push_back(cond);
  std::string printed = eacl::PrintEntry(entry);
  EXPECT_EQ(printed,
            "neg_access_right apache *\npre_cond_time local 09:00-17:00\n");
}

web::GaaWebServer::Options TestOptions() {
  web::GaaWebServer::Options options;
  options.notification_latency_us = 0;
  return options;
}

TEST(Facade, UnparsableClientIpFallsBackToZero) {
  web::GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  auto response = server.Get("/index.html", "not-an-ip");
  EXPECT_EQ(response.status, http::StatusCode::kOk);
  auto log = server.server().AccessLog();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().client_ip, "0.0.0.0");
}

TEST(Facade, SimClockPresentOnlyInSimMode) {
  web::GaaWebServer sim(http::DocTree::DemoSite(), TestOptions());
  EXPECT_NE(sim.sim_clock(), nullptr);
  web::GaaWebServer::Options real_options = TestOptions();
  real_options.use_real_clock = true;
  web::GaaWebServer real(http::DocTree::DemoSite(), real_options);
  EXPECT_EQ(real.sim_clock(), nullptr);
}

TEST(AbnormalParameters, OversizedQueryIsReported) {
  // §3 item 2: "Access requests with parameters that are abnormally large".
  web::GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  // Normal request: no report.
  server.Get("/cgi-bin/search?q=apache", "10.0.0.1");
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kAbnormalParameters),
            0u);
  // 3000-byte query: reported but still policy-decided (here: served).
  auto response = server.Get("/cgi-bin/search?q=" + std::string(3000, 'a'),
                             "10.0.0.1");
  EXPECT_EQ(response.status, http::StatusCode::kOk);
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kAbnormalParameters),
            1u);
}

TEST(AbnormalParameters, ManyHeadersReported) {
  web::GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  std::map<std::string, std::string> headers;
  for (int i = 0; i < 60; ++i) {
    headers["X-H" + std::to_string(i)] = "v";
  }
  server.HandleText(http::BuildGetRequest("/index.html", headers),
                    "10.0.0.1");
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kAbnormalParameters),
            1u);
}

TEST(AbnormalParameters, AllSevenReportKindsHaveNames) {
  using core::ReportKind;
  for (ReportKind kind :
       {ReportKind::kIllFormedRequest, ReportKind::kAbnormalParameters,
        ReportKind::kSensitiveDenial, ReportKind::kThresholdViolation,
        ReportKind::kDetectedAttack, ReportKind::kSuspiciousBehavior,
        ReportKind::kLegitimatePattern}) {
    EXPECT_STRNE(core::ReportKindName(kind), "?");
  }
}

}  // namespace
}  // namespace gaa
