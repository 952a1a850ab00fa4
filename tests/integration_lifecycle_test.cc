// Capstone scenario: a full incident lifecycle through every subsystem —
// normal operation, scan detection, automated response (notify, blacklist,
// escalate), IDS-driven lockdown, alert-channel fan-out, decay, recovery.
#include <gtest/gtest.h>

#include "http/doc_tree.h"
#include "ids/event_bus.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"
#include "workload/trace.h"

namespace gaa::web {
namespace {

using core::ThreatLevel;
using http::StatusCode;

TEST(IncidentLifecycle, EndToEnd) {
  GaaWebServer::Options options;
  options.notification_latency_us = 0;
  // Escalate quickly so one scan is enough to matter.
  options.threat.window_us = 120 * util::kMicrosPerSecond;
  options.threat.medium_score = 10.0;
  options.threat.high_score = 12.0;
  options.threat.decay_us = 60 * util::kMicrosPerSecond;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  server.AddUser("alice", "wonder");

  // --- policies: §7.1 lockdown + §7.2 signatures & response ---------------
  ASSERT_TRUE(server
                  .AddSystemPolicy(R"(
eacl_mode 1
neg_access_right * *
pre_cond_accessid GROUP local BadGuys
)")
                  .ok());
  ASSERT_TRUE(server
                  .AddSystemPolicy(R"(
neg_access_right * *
pre_cond_system_threat_level local =high
)")
                  .ok());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
pre_cond_system_threat_level local <high
)")
                  .ok());

  // The §9 subscription channel: high-severity events fan out to a second
  // notification path (e.g. the security officer's pager); the severity
  // floor is the subscription policy.
  audit::SimulatedSmtpNotifier pager(server.sim_clock(), 0);
  server.ids().bus().Subscribe({"*", 6}, [&pager](const ids::Event& event) {
    pager.Notify("security-officer", "[ids] " + event.topic, event.payload);
  });

  // --- phase 1: normal operation -------------------------------------------
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  EXPECT_EQ(server.state().threat_level(), ThreatLevel::kLow);
  EXPECT_EQ(pager.sent_count(), 0u);

  // --- phase 2: a vulnerability scan arrives --------------------------------
  workload::TraceGenerator gen({});
  auto scan = gen.VulnerabilityScan("203.0.113.66", 5);
  std::size_t blocked = 0;
  for (const auto& probe : scan) {
    if (server.HandleText(probe.raw, probe.client_ip).status ==
        StatusCode::kForbidden) {
      ++blocked;
    }
  }
  EXPECT_EQ(blocked, scan.size());  // every probe denied
  // Response actions fired: admin notified, source blacklisted, pager rang.
  EXPECT_GE(server.notifier().sent_count(), 1u);
  EXPECT_TRUE(server.state().GroupContains("BadGuys", "203.0.113.66"));
  EXPECT_GE(pager.sent_count(), 1u);

  // A second attacker pushes the score over the lockdown threshold.
  auto scan2 = gen.VulnerabilityScan("203.0.113.67", 1);
  for (const auto& probe : scan2) {
    server.HandleText(probe.raw, probe.client_ip);
  }
  ASSERT_EQ(server.state().threat_level(), ThreatLevel::kHigh);

  // --- phase 3: lockdown ------------------------------------------------------
  // Even benign clients are now shut out by the mandatory threat policy.
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status,
            StatusCode::kForbidden);

  // --- phase 4: quiet period, decay, recovery ---------------------------------
  server.sim_clock()->Advance(150 * util::kMicrosPerSecond);
  server.ids().threat().Tick();  // high -> medium (score window expired)
  server.sim_clock()->Advance(70 * util::kMicrosPerSecond);
  server.ids().threat().Tick();  // medium -> low
  EXPECT_EQ(server.state().threat_level(), ThreatLevel::kLow);
  EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);

  // The blacklist survives recovery: the scanners stay out.
  EXPECT_EQ(server.Get("/index.html", "203.0.113.66").status,
            StatusCode::kForbidden);

  // --- audit trail: the incident is fully reconstructable ---------------------
  EXPECT_GE(server.audit_log().CountCategory("blacklist"), 2u);
  EXPECT_GE(testing::IdsReportCount(server.telemetry().registry(),
                                    core::ReportKind::kDetectedAttack),
            2u);
}

TEST(PolicyExport, RoundTripsThroughParser) {
  GaaWebServer::Options options;
  options.notification_latency_us = 0;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server
                  .AddSystemPolicy("eacl_mode 1\nneg_access_right * *\n"
                                   "pre_cond_accessid GROUP local BadGuys\n")
                  .ok());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", "neg_access_right apache *\n"
                                       "pre_cond_regex gnu *phf*\n"
                                       "pos_access_right apache *\n")
                  .ok());
  std::string system_text = server.policy_store().ExportSystemPolicies();
  EXPECT_NE(system_text.find("eacl_mode 1"), std::string::npos);
  EXPECT_NE(system_text.find("BadGuys"), std::string::npos);

  auto local_text = server.policy_store().ExportLocalPolicy("/");
  ASSERT_TRUE(local_text.has_value());
  // The export re-imports to an equivalent policy.
  GaaWebServer reimport(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(reimport.AddSystemPolicy(system_text).ok());
  ASSERT_TRUE(reimport.SetLocalPolicy("/", *local_text).ok());
  EXPECT_EQ(reimport.Get("/cgi-bin/phf?x", "203.0.113.9").status,
            http::StatusCode::kForbidden);
  EXPECT_EQ(reimport.Get("/index.html", "10.0.0.1").status,
            http::StatusCode::kOk);

  EXPECT_FALSE(server.policy_store().ExportLocalPolicy("/nope").has_value());
}

}  // namespace
}  // namespace gaa::web
