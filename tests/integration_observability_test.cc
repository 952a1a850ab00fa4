// End-to-end observability pipeline: denial attribution into the audit
// stream, the /__status/policies + /metrics.json + /slow views, config/env
// tracer knobs, and the watchdog wired through GaaWebServer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "audit/audit_stream.h"
#include "integration/gaa_web_server.h"
#include "util/config.h"

namespace gaa::web {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Observability, DeniedRequestIsAuditedWithAttribution) {
  GaaWebServer server(http::DocTree::DemoSite());
  // Local policies conjoin: "/" grants, "/private" denies -> the denial is
  // attributed to the /private entry that flipped the answer.
  ASSERT_TRUE(
      server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_TRUE(
      server.SetLocalPolicy("/private", "neg_access_right apache *\n").ok());

  EXPECT_EQ(server.Get("/private/report.html", "10.9.9.9").status,
            http::StatusCode::kForbidden);

  auto decisions = server.audit_log().ByCategory("decision");
  ASSERT_GE(decisions.size(), 1u);
  const audit::AuditRecord& rec = decisions.back();
  EXPECT_EQ(rec.decision, "no");
  EXPECT_EQ(rec.message,
            "authz=NO right=apache:GET object=/private/report.html");
  EXPECT_EQ(rec.client, "10.9.9.9");
  EXPECT_EQ(rec.policy, "local:/private");
  EXPECT_EQ(rec.entry, 0);
  EXPECT_NE(rec.trace_id, 0u);
}

TEST(Observability, GrantedRequestsAreNotPerRequestAudited) {
  GaaWebServer server(http::DocTree::DemoSite());
  ASSERT_TRUE(
      server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            http::StatusCode::kOk);
  EXPECT_EQ(server.audit_log().CountCategory("decision"), 0u);
}

TEST(Observability, StatusPoliciesViewListsEntryCountsAndConditions) {
  GaaWebServer server(http::DocTree::DemoSite());
  // Entry 0 applies to GET but its regex condition never matches, so every
  // scan records a miss there before entry 1 grants.
  ASSERT_TRUE(server
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_regex gnu *no-such-path*\n"
                                  "pos_access_right apache *\n")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
              http::StatusCode::kOk);
  }

  auto response = server.Get("/__status/policies", "10.0.0.1");
  ASSERT_EQ(response.status, http::StatusCode::kOk);
  EXPECT_EQ(response.headers.at("Content-Type"), "application/json");
  EXPECT_NE(response.body.find("\"policy\":\"local:/\""), std::string::npos);
  // Entry 0 missed the 3 document requests plus the scrape itself (the
  // scrape is authorized before rendering); entry 1 granted all 4.
  EXPECT_NE(response.body.find("\"entry\":1"), std::string::npos);
  EXPECT_NE(response.body.find("\"yes\":4"), std::string::npos);
  EXPECT_NE(response.body.find("\"miss\":4"), std::string::npos);
  // The regex condition's latency histogram shows up with quantiles.
  EXPECT_NE(response.body.find("\"cond\":\"pre_cond_regex\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"p95\":"), std::string::npos);
}

TEST(Observability, StatusMetricsJsonHasQuantiles) {
  GaaWebServer server(http::DocTree::DemoSite());
  ASSERT_TRUE(
      server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            http::StatusCode::kOk);
  auto response = server.Get("/__status/metrics.json", "10.0.0.1");
  ASSERT_EQ(response.status, http::StatusCode::kOk);
  EXPECT_NE(response.body.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"p95\":"), std::string::npos);
  EXPECT_NE(response.body.find("http_request_latency_us"), std::string::npos);
}

TEST(Observability, NewStatusViewsArePolicyProtected) {
  GaaWebServer server(http::DocTree::DemoSite());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/",
                                  "neg_access_right apache *\n"
                                  "pre_cond_regex gnu *__status*\n"
                                  "pos_access_right apache *\n")
                  .ok());
  for (const char* path :
       {"/__status/policies", "/__status/metrics.json", "/__status/slow"}) {
    EXPECT_EQ(server.Get(path, "10.0.0.1").status,
              http::StatusCode::kForbidden)
        << path;
  }
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            http::StatusCode::kOk);
}

TEST(Observability, AuditStreamOptionWritesJsonl) {
  const std::string path = TempPath("observability_stream.jsonl");
  GaaWebServer::Options options;
  options.audit_stream.path = path;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(
      server.SetLocalPolicy("/private", "neg_access_right apache *\n").ok());
  ASSERT_TRUE(
      server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());

  EXPECT_EQ(server.Get("/private/secret.html", "10.8.8.8").status,
            http::StatusCode::kForbidden);
  server.audit_log().Flush();

  auto text = util::ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  auto parsed = audit::ParseAuditJsonl(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  bool found = false;
  for (const auto& rec : parsed.value()) {
    if (rec.category == "decision" && rec.policy == "local:/private") {
      found = true;
      EXPECT_EQ(rec.decision, "no");
      EXPECT_EQ(rec.client, "10.8.8.8");
    }
  }
  EXPECT_TRUE(found);
}

TEST(Observability, TracerKnobsConfigurableViaOptions) {
  GaaWebServer::Options options;
  options.tuning.trace_ring_capacity = 2;
  options.tuning.trace_sample_period = 2;  // trace every other request
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(
      server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
              http::StatusCode::kOk);
  }
  EXPECT_EQ(server.telemetry().tracer().capacity(), 2u);
  EXPECT_EQ(server.telemetry().tracer().Recent().size(), 2u);
  // 1-in-2 sampling: 8 requests -> 4 traces started.
  EXPECT_EQ(server.telemetry().tracer().started(), 4u);
}

TEST(Observability, TracerKnobsConfigurableViaEnvironment) {
  ::setenv("GAA_TRACE_RING", "3", 1);
  ::setenv("GAA_TRACE_SAMPLE_PERIOD", "1", 1);
  GaaWebServer::Options options;
  options.tuning.trace_ring_capacity = 64;  // env should win
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ::unsetenv("GAA_TRACE_RING");
  ::unsetenv("GAA_TRACE_SAMPLE_PERIOD");
  EXPECT_EQ(server.telemetry().tracer().capacity(), 3u);
}

TEST(Observability, WatchdogFlagsAndAuditsSlowRequests) {
  GaaWebServer::Options options;
  options.watchdog.enabled = true;
  options.watchdog.deadline_ms = 1;       // anything over 1 ms is "slow"
  options.watchdog.poll_interval_ms = 0;  // no monitor thread: manual scans
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(
      server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_NE(server.watchdog(), nullptr);

  // Open a trace "request" by hand so it is in flight during the scan, and
  // let it age past the deadline (steady clock, so a real sleep).
  auto trace = server.telemetry().tracer().Begin();
  ASSERT_NE(trace, nullptr);
  trace->method = "GET";
  trace->target = "/slow.html";
  trace->client_ip = "10.3.3.3";
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.watchdog()->ScanOnce(), 1u);
  server.telemetry().tracer().Finish(std::move(trace));

  EXPECT_EQ(server.telemetry()
                .registry()
                .GetCounter("slow_requests_total")
                ->Value(),
            1u);
  // Two audit events: flag-time (id + age) and retirement (full analysis).
  EXPECT_GE(server.audit_log().CountCategory("slow_request"), 2u);
  auto slow = server.telemetry().tracer().Pinned();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].target, "/slow.html");
  // The flagged request also fed the IDS as suspicious behaviour (§3.6).
  EXPECT_GE(server.ids().CountKind(core::ReportKind::kSuspiciousBehavior), 1u);

  auto response = server.Get("/__status/slow", "10.0.0.1");
  ASSERT_EQ(response.status, http::StatusCode::kOk);
  EXPECT_NE(response.body.find("\"target\":\"/slow.html\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"slow\":true"), std::string::npos);
}

TEST(Observability, ThreatEscalationIsAudited) {
  GaaWebServer server(http::DocTree::DemoSite());
  core::IdsReport report;
  report.kind = core::ReportKind::kDetectedAttack;
  report.source_ip = "10.66.66.66";
  report.severity = 10;
  report.confidence = 1.0;
  for (int i = 0; i < 50; ++i) server.ids().Report(report);
  ASSERT_GE(server.audit_log().CountCategory("threat"), 1u);
  const auto threats = server.audit_log().ByCategory("threat");
  EXPECT_NE(threats[0].message.find("threat level"), std::string::npos);
  EXPECT_EQ(threats[0].client, "10.66.66.66");
}

}  // namespace
}  // namespace gaa::web
