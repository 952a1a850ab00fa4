// Unit-level tests of the GAA access controller glue (§6 steps 2b-2d and
// phases 3-4) through the full server pipeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"

namespace gaa::web {
namespace {

using http::StatusCode;

GaaWebServer::Options TestOptions() {
  GaaWebServer::Options options;
  options.notification_latency_us = 0;
  return options;
}

TEST(ControllerContext, ExtractsClassifiedParameters) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  http::RequestRec rec;
  rec.method = "GET";
  rec.path = "/cgi-bin/search";
  rec.raw_target = "/cgi-bin/search?q=abc";
  rec.query = "q=abc";
  rec.client_ip = util::Ipv4Address::Parse("10.1.2.3").value();
  rec.headers["user-agent"] = "TestAgent/1.0";

  core::RequestContext ctx = server.controller().BuildContext(rec);
  EXPECT_EQ(ctx.application, "apache");
  EXPECT_EQ(ctx.operation, "GET");
  EXPECT_EQ(ctx.object, "/cgi-bin/search");
  EXPECT_EQ(ctx.query, "q=abc");
  ASSERT_NE(ctx.FindParam("client_ip"), nullptr);
  EXPECT_EQ(ctx.FindParam("client_ip")->value, "10.1.2.3");
  EXPECT_EQ(ctx.FindParam("client_ip")->authority, "apache");
  EXPECT_EQ(ctx.FindParam("cgi_input_length")->value, "5");
  EXPECT_EQ(ctx.FindParam("user_agent")->value, "TestAgent/1.0");
  EXPECT_EQ(ctx.FindParam("nonexistent"), nullptr);
}

TEST(ControllerAuth, ValidCredentialsAuthenticate) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  server.AddUser("alice", "wonder");
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
pre_cond_accessid USER apache alice
)")
                  .ok());
  auto ok = server.Get("/index.html", "10.0.0.1",
                       std::make_pair(std::string("alice"),
                                      std::string("wonder")));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  auto wrong = server.Get("/index.html", "10.0.0.1",
                          std::make_pair(std::string("alice"),
                                         std::string("bad")));
  EXPECT_EQ(wrong.status, StatusCode::kUnauthorized);
}

TEST(ControllerAuth, FailedAttemptsFeedTheCounter) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  server.AddUser("alice", "wonder");
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  for (int i = 0; i < 3; ++i) {
    server.Get("/index.html", "203.0.113.5",
               std::make_pair(std::string("alice"), std::string("guess")));
  }
  EXPECT_EQ(server.state().CountEvents("failed_auth:203.0.113.5",
                                       60 * util::kMicrosPerSecond),
            3u);
  // Successful logins do not count.
  server.Get("/index.html", "10.0.0.1",
             std::make_pair(std::string("alice"), std::string("wonder")));
  EXPECT_EQ(server.state().CountEvents("failed_auth:10.0.0.1",
                                       60 * util::kMicrosPerSecond),
            0u);
}

TEST(ControllerAuth, PasswordGuessingLockout) {
  // The §3-item-4 password-guessing detector, expressed purely in policy:
  // the only granting entry is gated on the failed-auth counter staying
  // under its threshold.  Once the source trips the threshold, no entry
  // applies and the closed-world default denies — a per-source lockout.
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  server.AddUser("alice", "wonder");
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
pre_cond_threshold local failed_auth:%ip 3 60
)")
                  .ok());
  auto guess = std::make_pair(std::string("alice"), std::string("guess"));
  // The first two guessing attempts are still served (the page itself is
  // public; only the counter grows).  The failed attempt is recorded before
  // policy evaluation, so the third bad guess trips the threshold itself.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(server.Get("/index.html", "203.0.113.5", guess).status,
              StatusCode::kOk);
  }
  EXPECT_EQ(server.Get("/index.html", "203.0.113.5", guess).status,
            StatusCode::kForbidden);
  // Every further request from that source is locked out...
  EXPECT_EQ(server.Get("/index.html", "203.0.113.5", guess).status,
            StatusCode::kForbidden);
  // ...even without credentials, and the violation reached the IDS.
  EXPECT_EQ(server.Get("/index.html", "203.0.113.5").status,
            StatusCode::kForbidden);
  EXPECT_GE(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kThresholdViolation),
            1u);
  // Other sources are unaffected.
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  // The window expires: the source is forgiven.
  server.sim_clock()->Advance(61 * util::kMicrosPerSecond);
  EXPECT_EQ(server.Get("/index.html", "203.0.113.5").status, StatusCode::kOk);
}

TEST(ControllerReporting, SensitiveDenialReported) {
  GaaWebServer::Options options = TestOptions();
  options.controller.sensitive_paths = {"/private/*"};
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server.SetLocalPolicy("/", "neg_access_right apache *\n").ok());
  server.Get("/private/report.html", "203.0.113.9");
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kSensitiveDenial),
            1u);
  // Non-sensitive denial: no report.
  server.Get("/index.html", "203.0.113.9");
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kSensitiveDenial),
            1u);
}

TEST(ControllerReporting, LegitimatePatternsWhenEnabled) {
  GaaWebServer::Options options = TestOptions();
  options.controller.report_legitimate_patterns = true;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  server.Get("/index.html", "10.0.0.1");
  server.Get("/docs/guide.html", "10.0.0.1");
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kLegitimatePattern),
            2u);
  // They must not move the threat level.
  EXPECT_EQ(server.state().threat_level(), core::ThreatLevel::kLow);
}

TEST(ControllerReporting, IllFormedRequestsReachTheIds) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  // The bus carries each report's content; the IDS keeps no copy.
  std::vector<std::string> payloads;
  server.ids().bus().Subscribe(
      {"gaa.report.ill_formed_request", 0},
      [&](const ids::Event& event) { payloads.push_back(event.payload); });
  server.HandleText("GEX / HTTP/1.1\r\n\r\n", "203.0.113.9");
  server.HandleText("GET /%zz HTTP/1.1\r\n\r\n", "203.0.113.9");
  EXPECT_EQ(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kIllFormedRequest),
            2u);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_NE(payloads[0].find(" type=bad_method "), std::string::npos);
  EXPECT_NE(payloads[1].find(" type=bad_escape "), std::string::npos);
}

TEST(ControllerPhases, MidConditionAbortsExpensiveCgi) {
  // Execution-control phase (paper phase 3): a CPU limit kills the phf
  // exploit path (0.05 cpu-s) but lets the cheap benign path run.
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
mid_cond_cpu local 0.01
)")
                  .ok());
  auto benign = server.Get("/cgi-bin/phf?Qalias=jdoe", "10.0.0.1");
  EXPECT_EQ(benign.status, StatusCode::kOk);
  auto exploit = server.Get("/cgi-bin/phf?Qalias=x%0acat", "203.0.113.9");
  EXPECT_EQ(exploit.status, StatusCode::kForbidden);
  EXPECT_NE(exploit.body.find("aborted"), std::string::npos);
}

TEST(ControllerPhases, PostConditionLogsOperationOutcome) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
post_cond_log local on:any/ops
)")
                  .ok());
  server.Get("/index.html", "10.0.0.1");
  server.Get("/missing.html", "10.0.0.1");
  auto records = server.audit_log().ByCategory("ops");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].message.find("OP_OK"), std::string::npos);
  EXPECT_NE(records[1].message.find("OP_FAIL"), std::string::npos);
}

TEST(ControllerPhases, IntegrityPostConditionCatchesPasswdWrite) {
  // The §1 example wired end-to-end: the phf exploit "touches" /etc/passwd;
  // the post-condition raises the alarm.
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
post_cond_check_integrity local /etc/*
)")
                  .ok());
  server.Get("/cgi-bin/phf?Qalias=x%0acat", "203.0.113.9");
  EXPECT_GE(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kSuspiciousBehavior),
            1u);
  EXPECT_GE(server.notifier().sent_count(), 1u);
  EXPECT_EQ(server.audit_log().CountCategory("integrity"), 1u);
}

TEST(ControllerPhases, RrAuditConditionWritesAccessRecords) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
rr_cond_audit local on:any/access
)")
                  .ok());
  server.Get("/index.html", "10.0.0.1");
  EXPECT_EQ(server.audit_log().CountCategory("access"), 1u);
}

}  // namespace
}  // namespace gaa::web
