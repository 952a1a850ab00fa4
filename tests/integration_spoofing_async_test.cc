// Tests for the §3 spoofing-aware response and the asynchronous
// notification option.
#include <gtest/gtest.h>

#include "conditions/builtin.h"
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

TEST(SpoofingCondition, CleanVsSuspected) {
  gaa::testing::TestRig rig;
  auto routine = cond::MakeSpoofingRoutine({});
  auto ctx = gaa::testing::MakeContext("203.0.113.9");
  auto clean_cond =
      gaa::testing::MakeCond("pre_cond_spoofing", "local", "clean");
  auto suspected_cond =
      gaa::testing::MakeCond("pre_cond_spoofing", "local", "suspected");

  EXPECT_EQ(routine(clean_cond, ctx, rig.services).status,
            util::Tristate::kYes);
  EXPECT_EQ(routine(suspected_cond, ctx, rig.services).status,
            util::Tristate::kNo);

  rig.ids.spoofed.push_back("203.0.113.9");
  EXPECT_EQ(routine(clean_cond, ctx, rig.services).status,
            util::Tristate::kNo);
  EXPECT_EQ(routine(suspected_cond, ctx, rig.services).status,
            util::Tristate::kYes);
}

TEST(SpoofingCondition, NoIdsMeansUnevaluated) {
  core::EvalServices bare;
  auto routine = cond::MakeSpoofingRoutine({});
  auto ctx = gaa::testing::MakeContext();
  auto out = routine(gaa::testing::MakeCond("pre_cond_spoofing", "local",
                                            "clean"),
                     ctx, bare);
  EXPECT_FALSE(out.evaluated);
}

TEST(SpoofingGuard, BlacklistUpdateSkipsSpoofedSources) {
  // §1: "an automated response to attacks can be used by an intruder in
  // order to stage a DoS (the intruder could have impersonated a host)".
  // With check_spoofing=true the blacklist update consults the network IDS
  // and refuses to blacklist a suspected-spoofed source.
  gaa::testing::TestRig rig;
  auto guarded = cond::MakeUpdateLogRoutine({{"check_spoofing", "true"}});
  auto cond_val = gaa::testing::MakeCond("rr_cond_update_log", "local",
                                         "on:failure/BadGuys/info:ip");

  rig.ids.spoofed.push_back("10.0.0.42");  // the impersonated victim
  auto victim = gaa::testing::MakeContext("10.0.0.42");
  victim.request_granted = false;
  auto out = guarded(cond_val, victim, rig.services);
  EXPECT_EQ(out.status, util::Tristate::kYes);  // action succeeds (no-op)
  EXPECT_FALSE(rig.state.GroupContains("BadGuys", "10.0.0.42"));
  // The skip is audited for the administrator's review.
  EXPECT_EQ(rig.audit.CountCategory("blacklist"), 1u);

  // A genuinely-attacking source is still blacklisted.
  auto attacker = gaa::testing::MakeContext("203.0.113.9");
  attacker.request_granted = false;
  guarded(cond_val, attacker, rig.services);
  EXPECT_TRUE(rig.state.GroupContains("BadGuys", "203.0.113.9"));
}

TEST(SpoofingGuard, UnguardedUpdateStillBlacklists) {
  gaa::testing::TestRig rig;
  auto unguarded = cond::MakeUpdateLogRoutine({});
  rig.ids.spoofed.push_back("10.0.0.42");
  auto ctx = gaa::testing::MakeContext("10.0.0.42");
  ctx.request_granted = false;
  unguarded(gaa::testing::MakeCond("rr_cond_update_log", "local",
                                   "on:failure/BadGuys/info:ip"),
            ctx, rig.services);
  EXPECT_TRUE(rig.state.GroupContains("BadGuys", "10.0.0.42"));
}

TEST(SpoofingGuard, EndToEndThroughPolicy) {
  // Bind a guarded update_log via the configuration file and run the §7.2
  // policy: a spoofed source triggers the signature but never lands on the
  // blacklist, so its *next* (benign) request is served.
  GaaWebServer::Options options = TestOptions();
  options.extra_config =
      "condition rr_cond_update_log local builtin:update_log "
      "check_spoofing=true\n";
  GaaWebServer server(http::DocTree::DemoSite(), options);
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
pre_cond_regex gnu *phf*
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)")
                  .ok());
  server.ids().MarkSpoofedSource("10.0.0.42");

  // Attack "from" the spoofed victim address: denied, but NOT blacklisted.
  EXPECT_EQ(server.Get("/cgi-bin/phf?x", "10.0.0.42").status,
            StatusCode::kForbidden);
  EXPECT_FALSE(server.state().GroupContains("BadGuys", "10.0.0.42"));
  EXPECT_EQ(server.Get("/index.html", "10.0.0.42").status, StatusCode::kOk);

  // The same attack from a non-spoofed source blacklists as usual.
  EXPECT_EQ(server.Get("/cgi-bin/phf?x", "203.0.113.9").status,
            StatusCode::kForbidden);
  EXPECT_TRUE(server.state().GroupContains("BadGuys", "203.0.113.9"));
  EXPECT_EQ(server.Get("/index.html", "203.0.113.9").status,
            StatusCode::kForbidden);
}

TEST(AsyncNotification, QueuedDeliveryOffRequestPath) {
  GaaWebServer::Options options;
  options.use_real_clock = true;  // queued notifier needs a real worker
  // Far above any request's run time: a delivery on the request path would
  // hold Get() until it completed.
  options.notification_latency_us = 300'000;
  options.asynchronous_notification = true;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf*
rr_cond_notify local on:failure/sysadmin/info:attack
pos_access_right apache *
)")
                  .ok());
  ASSERT_NE(server.queued_notifier(), nullptr);

  auto response = server.Get("/cgi-bin/phf?x", "203.0.113.9");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
  // The notification is queued, not yet delivered, when the request returns.
  EXPECT_EQ(server.queued_notifier()->delivered_count(), 0u);
  server.queued_notifier()->Flush();
  EXPECT_EQ(server.queued_notifier()->delivered_count(), 1u);
}

}  // namespace
}  // namespace gaa::web
