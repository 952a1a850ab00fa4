// Scenario test: §7.2 "Application level Intrusion Detection".
//
// System-wide (narrow): members of the BadGuys group are denied.
// Local: requests matching *phf* / *test-cgi* are rejected; the response
// notifies the administrator and adds the source address to BadGuys, so
// follow-up probes with UNKNOWN signatures from the same host are blocked.
#include <gtest/gtest.h>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"
#include "workload/trace.h"

namespace gaa::web {
namespace {

using http::StatusCode;

constexpr const char* kSystemPolicy = R"(
eacl_mode 1
neg_access_right * *
pre_cond_accessid GROUP local BadGuys
)";

constexpr const char* kLocalPolicy = R"(
# Entry 1: known CGI-abuse signatures are rejected with response actions.
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:ip
# Entry 2: everything else is allowed.
pos_access_right apache *
)";

class IntrusionTest : public ::testing::Test {
 protected:
  IntrusionTest() : server_(http::DocTree::DemoSite(), MakeOptions()) {
    EXPECT_TRUE(server_.AddSystemPolicy(kSystemPolicy).ok());
    EXPECT_TRUE(server_.SetLocalPolicy("/", kLocalPolicy).ok());
  }

  static GaaWebServer::Options MakeOptions() {
    GaaWebServer::Options options;
    options.notification_latency_us = 0;  // latency-free for tests
    return options;
  }

  GaaWebServer server_;
};

TEST_F(IntrusionTest, BenignRequestsPass) {
  EXPECT_EQ(server_.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  EXPECT_EQ(server_.Get("/cgi-bin/search?q=apache", "10.0.0.1").status,
            StatusCode::kOk);
}

TEST_F(IntrusionTest, PhfProbeIsRejected) {
  auto response =
      server_.Get("/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd",
                  "203.0.113.9");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
}

TEST_F(IntrusionTest, ProbeNotifiesAdministrator) {
  server_.Get("/cgi-bin/phf?Qalias=x", "203.0.113.9");
  ASSERT_EQ(server_.notifier().sent_count(), 1u);
  auto sent = server_.notifier().Sent();
  EXPECT_NE(sent[0].subject.find("cgiexploit"), std::string::npos);
  EXPECT_NE(sent[0].body.find("203.0.113.9"), std::string::npos);
}

TEST_F(IntrusionTest, ProbeBlacklistsTheSource) {
  EXPECT_FALSE(server_.state().GroupContains("BadGuys", "203.0.113.9"));
  server_.Get("/cgi-bin/test-cgi?*", "203.0.113.9");
  EXPECT_TRUE(server_.state().GroupContains("BadGuys", "203.0.113.9"));
}

TEST_F(IntrusionTest, BlacklistBlocksUnknownSignatureFollowUps) {
  // The paper's key claim: "If the system identifies requests from an
  // address as matching known attack signature, then subsequent requests
  // from that host ... checking for vulnerabilities we might not yet know
  // about, can still be blocked."
  workload::TraceGenerator gen({});
  auto scan = gen.VulnerabilityScan("203.0.113.9", 5);
  ASSERT_EQ(scan.size(), 6u);

  // The first (known-signature) probe is rejected by the signature entry.
  auto first = server_.HandleText(scan[0].raw, scan[0].client_ip);
  EXPECT_EQ(first.status, StatusCode::kForbidden);

  // Every unknown-signature follow-up is blocked by the blacklist, even
  // though no signature matches them.
  for (std::size_t i = 1; i < scan.size(); ++i) {
    auto response = server_.HandleText(scan[i].raw, scan[i].client_ip);
    EXPECT_EQ(response.status, StatusCode::kForbidden) << scan[i].raw;
  }

  // A different (benign) host still gets through to the same URLs — the
  // block is per-source, not per-URL.
  auto other = server_.HandleText(scan[1].raw, "10.0.0.1");
  EXPECT_NE(other.status, StatusCode::kForbidden);
}

TEST_F(IntrusionTest, BlacklistIsSharedAcrossObjects) {
  server_.Get("/cgi-bin/phf?x", "203.0.113.9");
  // The blacklisted host is denied even plain static pages.
  EXPECT_EQ(server_.Get("/index.html", "203.0.113.9").status,
            StatusCode::kForbidden);
}

TEST_F(IntrusionTest, SignatureHitsAreReportedToIds) {
  server_.Get("/cgi-bin/phf?x", "203.0.113.9");
  EXPECT_GE(testing::IdsReportCount(server_.telemetry().registry(),
                                    core::ReportKind::kDetectedAttack),
            1u);
}

TEST_F(IntrusionTest, RepeatedAttacksEscalateThreatLevel) {
  ASSERT_EQ(server_.state().threat_level(), core::ThreatLevel::kLow);
  for (int i = 0; i < 8; ++i) {
    server_.Get("/cgi-bin/phf?attempt=" + std::to_string(i),
                "203.0.113." + std::to_string(10 + i));
  }
  EXPECT_GT(static_cast<int>(server_.state().threat_level()),
            static_cast<int>(core::ThreatLevel::kLow));
}

TEST_F(IntrusionTest, FalsePositiveCheckOnBenignTrace) {
  // No benign request in the standard mix may be denied.
  workload::TraceOptions options;
  options.count = 300;
  options.attack_fraction = 0.0;
  workload::TraceGenerator gen(options);
  for (const auto& request : gen.Generate()) {
    if (request.kind == workload::RequestKind::kPrivatePage) continue;
    auto response = server_.HandleText(request.raw, request.client_ip);
    EXPECT_NE(response.status, StatusCode::kForbidden)
        << request.label << " " << request.raw;
  }
}

// --- additional §7.2 signatures ------------------------------------------------

constexpr const char* kExtendedLocalPolicy = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_update_log local on:failure/BadGuys/info:ip
neg_access_right apache *
pre_cond_regex gnu *///////////////////*
neg_access_right apache *
pre_cond_regex gnu *%*
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
pos_access_right apache *
)";

class ExtendedSignatureTest : public ::testing::Test {
 protected:
  ExtendedSignatureTest() : server_(http::DocTree::DemoSite(), MakeOptions()) {
    EXPECT_TRUE(server_.SetLocalPolicy("/", kExtendedLocalPolicy).ok());
  }

  static GaaWebServer::Options MakeOptions() {
    GaaWebServer::Options options;
    options.notification_latency_us = 0;
    return options;
  }

  GaaWebServer server_;
};

TEST_F(ExtendedSignatureTest, SlashDosRejected) {
  auto response = server_.Get("/" + std::string(40, '/'), "203.0.113.9");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
}

TEST_F(ExtendedSignatureTest, NimdaPercentRejected) {
  auto response = server_.Get(
      "/scripts/..%255c..%255cwinnt/system32/cmd.exe?/c+dir", "203.0.113.9");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
}

TEST_F(ExtendedSignatureTest, BufferOverflowInputRejected) {
  auto response = server_.Get("/cgi-bin/search?q=" + std::string(1200, 'A'),
                              "203.0.113.9");
  EXPECT_EQ(response.status, StatusCode::kForbidden);
}

TEST_F(ExtendedSignatureTest, ThousandCharInputIsStillAllowed) {
  // Boundary: exactly 1000 characters of CGI input is NOT "longer than
  // 1000" and must pass.
  std::string query = "q=" + std::string(998, 'A');
  ASSERT_EQ(query.size(), 1000u);
  auto response = server_.Get("/cgi-bin/search?" + query, "10.0.0.1");
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_F(ExtendedSignatureTest, BenignStillPasses) {
  EXPECT_EQ(server_.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
  EXPECT_EQ(server_.Get("/docs/guide.html", "10.0.0.1").status,
            StatusCode::kOk);
}

}  // namespace
}  // namespace gaa::web
