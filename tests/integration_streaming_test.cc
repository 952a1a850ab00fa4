// Execution-control over long-running operations: the mid-condition phase
// runs BETWEEN steps of a streaming CGI and aborts it mid-flight (paper
// phase 3: "to detect malicious behavior in real-time (e.g., a user
// process consumes excessive system resources)").
#include <gtest/gtest.h>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"
#include "util/config.h"

namespace gaa::web {
namespace {

using http::StatusCode;

GaaWebServer::Options TestOptions() {
  GaaWebServer::Options options;
  options.notification_latency_us = 0;
  return options;
}

TEST(StreamingExecution, RunsToCompletionWithoutLimits) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  auto response = server.Get("/cgi-bin/bigreport", "10.0.0.1");
  EXPECT_EQ(response.status, StatusCode::kOk);
  // All 20 sections.
  EXPECT_NE(response.body.find("report section 19"), std::string::npos);
}

TEST(StreamingExecution, CpuLimitAbortsMidOperation) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  // 0.2 cpu-seconds allows ~8 of the 20 x 25 ms steps.
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
mid_cond_cpu local 0.2
)")
                  .ok());
  auto response = server.Get("/cgi-bin/bigreport", "10.0.0.1");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
  EXPECT_NE(response.body.find("aborted"), std::string::npos);
  // The abort was a *mid-flight* kill, reported as suspicious behaviour.
  EXPECT_GE(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kSuspiciousBehavior),
            1u);
}

TEST(StreamingExecution, OutputLimitAbortsEarly) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
mid_cond_output local 64
)")
                  .ok());
  auto response = server.Get("/cgi-bin/bigreport", "10.0.0.1");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
}

TEST(StreamingExecution, AdaptiveCpuCapViaVariable) {
  // The IDS tightens the cap at runtime; the very next operation feels it.
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
mid_cond_cpu local var:gaa.cpu_cap
)")
                  .ok());
  server.ids().PushAdaptiveValue("gaa.cpu_cap", "10.0");
  EXPECT_EQ(server.Get("/cgi-bin/bigreport", "10.0.0.1").status,
            StatusCode::kOk);
  server.ids().PushAdaptiveValue("gaa.cpu_cap", "0.1");
  EXPECT_EQ(server.Get("/cgi-bin/bigreport", "10.0.0.1").status,
            StatusCode::kForbidden);
}

TEST(StreamingExecution, PostConditionsSeeAbortAsFailure) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
mid_cond_cpu local 0.1
post_cond_log local on:failure/aborted_ops
)")
                  .ok());
  server.Get("/cgi-bin/bigreport", "10.0.0.1");
  EXPECT_EQ(server.audit_log().CountCategory("aborted_ops"), 1u);
}

TEST(HeadMethod, NoBodyButLengthPreserved) {
  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  auto get = server.Get("/index.html", "10.0.0.1");
  std::string raw = "HEAD /index.html HTTP/1.1\r\nHost: x\r\n\r\n";
  auto head = server.HandleText(raw, "10.0.0.1");
  EXPECT_EQ(head.status, StatusCode::kOk);
  EXPECT_TRUE(head.BodyView().empty());
  EXPECT_EQ(head.headers.at("Content-Length"),
            std::to_string(get.BodySize()));
}

TEST(DiskBackedPolicies, LoadFromFiles) {
  std::string dir = ::testing::TempDir();
  std::string system_path = dir + "/system.eacl";
  std::string local_path = dir + "/local.eacl";
  ASSERT_TRUE(util::WriteStringToFile(system_path,
                                      "eacl_mode 1\nneg_access_right * *\n"
                                      "pre_cond_system_threat_level local "
                                      "=high\n")
                  .ok());
  ASSERT_TRUE(util::WriteStringToFile(local_path,
                                      "pos_access_right apache *\n")
                  .ok());

  GaaWebServer server(http::DocTree::DemoSite(), TestOptions());
  ASSERT_TRUE(server.policy_store().AddSystemPolicyFile(system_path).ok());
  ASSERT_TRUE(server.policy_store().SetLocalPolicyFile("/", local_path).ok());

  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  server.state().SetThreatLevel(core::ThreatLevel::kHigh);
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            StatusCode::kForbidden);

  EXPECT_FALSE(
      server.policy_store().AddSystemPolicyFile("/no/such/file").ok());
}

}  // namespace
}  // namespace gaa::web
