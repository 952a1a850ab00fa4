// Cross-cutting integration tests: policy rewrites (the attack response)
// seen by the next request, notification latency showing up in request
// handling, mixed workload end-to-end, and failure injection.
#include <gtest/gtest.h>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"
#include "workload/trace.h"

namespace gaa::web {
namespace {

using http::StatusCode;

GaaWebServer::Options TestOptions() {
  GaaWebServer::Options options;
  options.notification_latency_us = 0;
  return options;
}

TEST(DecisionMemoIntegration, HitsAccumulateAndPolicyRewriteInvalidates) {
  // Compiled engine (the default): repeated identical requests are served
  // from the decision memo cache, and a policy rewrite — the snapshot swap
  // bumps the store version baked into every memo key — invalidates all
  // cached decisions at once.
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  }
  EXPECT_GE(server.api().decision_cache().hits(), 9u);

  // The attack response rewrites policy; the very next request must see it.
  ASSERT_TRUE(server.SetLocalPolicy("/", "neg_access_right apache *\n").ok());
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            StatusCode::kForbidden);
}

TEST(InterpretedEngineIntegration, NextRequestSeesRewrittenPolicy) {
  // The interpreter retrieves and composes the policy on every request, so
  // a rewrite applies to the very next one.
  GaaWebServer::Options options = TestOptions();
  options.enable_compiled_engine = false;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  ASSERT_TRUE(server.SetLocalPolicy("/", "neg_access_right apache *\n").ok());
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            StatusCode::kForbidden);
}

TEST(NotificationLatency, ShowsUpInSimulatedTime) {
  // The paper's §8 effect in miniature: with synchronous notification, the
  // request path carries the delivery latency.
  GaaWebServer::Options options;
  options.notification_latency_us = 47'000;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
pos_access_right apache *
)")
                  .ok());
  auto t0 = server.sim_clock()->Now();
  server.Get("/index.html", "10.0.0.1");  // benign: no notification
  EXPECT_EQ(server.sim_clock()->Now(), t0);
  server.Get("/cgi-bin/phf?x", "203.0.113.9");  // attack: notify
  EXPECT_EQ(server.sim_clock()->Now(), t0 + 47'000);
}

TEST(FailureInjection, NotificationFailureDegradesToDeny) {
  // rr_cond_notify on a *granting* entry: if notification is down, the
  // grant degrades to deny (conjunction semantics) — fail closed.
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
rr_cond_notify local on:success/sysadmin/info:grantlog
)")
                  .ok());
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  server.notifier().SetFailing(true);
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            StatusCode::kForbidden);
  server.notifier().SetFailing(false);
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
}

TEST(MixedWorkload, EndToEndCountsAreConsistent) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  server.AddUser("alice", "wonder");
  ASSERT_TRUE(server
                  .AddSystemPolicy(R"(
eacl_mode 1
neg_access_right * *
pre_cond_accessid GROUP local BadGuys
)")
                  .ok());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *%* *///////////////////*
rr_cond_update_log local on:failure/BadGuys/info:ip
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)")
                  .ok());

  workload::TraceOptions trace_options;
  trace_options.count = 500;
  trace_options.attack_fraction = 0.2;
  trace_options.seed = 7;
  workload::TraceGenerator gen(trace_options);
  auto trace = gen.Generate();

  std::size_t attacks = 0;
  std::size_t benign = 0;
  std::size_t benign_denied = 0;
  for (const auto& request : trace) {
    auto response = server.HandleText(request.raw, request.client_ip);
    if (workload::IsAttackKind(request.kind)) {
      ++attacks;
    } else {
      ++benign;
      if (response.status == StatusCode::kForbidden) ++benign_denied;
    }
  }
  ASSERT_GT(attacks, 0u);
  ASSERT_GT(benign, 0u);
  // Benign traffic from the 10/8 pool is never caught by the signatures;
  // all its sources stay off the blacklist.
  EXPECT_EQ(benign_denied, 0u);
  // Attacker hosts got blacklisted.
  EXPECT_GT(server.state().GroupSize("BadGuys"), 0u);
  // Every signature hit produced an IDS report.
  EXPECT_GT(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kDetectedAttack),
            0u);
  // The server kept serving throughout.
  EXPECT_EQ(server.server().requests_served(), trace.size());
}

TEST(MultiplePolicies, DeepDirectoryChainsCompose) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  server.AddUser("alice", "wonder");
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/private", R"(
pos_access_right apache *
pre_cond_accessid USER apache *
)")
                  .ok());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/private/logs", R"(
pos_access_right apache *
pre_cond_accessid USER apache alice
)")
                  .ok());
  // Public page: anonymous fine.
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  // /private: any authenticated user.
  EXPECT_EQ(server.Get("/private/report.html", "10.0.0.1").status,
            StatusCode::kUnauthorized);
  EXPECT_EQ(server
                .Get("/private/report.html", "10.0.0.1",
                     std::make_pair(std::string("alice"),
                                    std::string("wonder")))
                .status,
            StatusCode::kOk);
  // /private/logs: alice only (all three policies conjoin).
  EXPECT_EQ(server
                .Get("/private/logs/system.log", "10.0.0.1",
                     std::make_pair(std::string("alice"),
                                    std::string("wonder")))
                .status,
            StatusCode::kOk);
}

}  // namespace
}  // namespace gaa::web
