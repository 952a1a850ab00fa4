// The attack corpus under the paper's integrated policy (EXPERIMENTS.md E7,
// retired into this test): every request kind of workload::MixedScenario —
// the corpus the repository benchmark's `mixed` workload sends — goes to a
// GaaWebServer behind the real sharded transport, one connection per
// request, and must be classified exactly:
//   * benign kinds are served 200;
//   * each attack kind gets its own 4xx from the EACL signature policy,
//     the parser or the transport's framing checks, and is reported to the
//     IDS;
//   * a slowloris head is never answered; once the client gives up, the
//     transport records the truncated request and reports it.
// The reactor health series must also reach /__status/metrics.json.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/doc_tree.h"
#include "http/request.h"
#include "http/tcp_server.h"
#include "integration/gaa_web_server.h"
#include "workload/loadgen.h"

namespace gaa::web {
namespace {

using workload::RequestKind;

/// Deny the §7.2 signature set (CGI probes, NIMDA percent URLs, the
/// many-slashes DoS, cmd.exe traversal) and over-long CGI input, then grant
/// everything else.  No rr_cond_update_log blacklisting: every request
/// leaves from 127.0.0.1, so a blacklist would also deny the benign kinds.
constexpr char kSignaturePolicy[] = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *%* *///////////////////* *cmd.exe*
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
pos_access_right apache *
)";

/// The exact status each kind must get; 0 means "never answered".
const std::map<RequestKind, int>& ExpectedStatus() {
  static const std::map<RequestKind, int> table = {
      {RequestKind::kStaticPage, 200},     {RequestKind::kSearchCgi, 200},
      {RequestKind::kPrivatePage, 200},    {RequestKind::kCgiProbe, 403},
      {RequestKind::kDosSlashes, 403},     {RequestKind::kNimdaPercent, 403},
      {RequestKind::kOverflowInput, 403},  {RequestKind::kIllFormed, 400},
      {RequestKind::kSlowHeaders, 0},      {RequestKind::kSmugglingProbe, 400},
      {RequestKind::kPathTraversal, 400},  {RequestKind::kHeaderFlood, 413},
      {RequestKind::kCachePoison, 400},
  };
  return table;
}

/// Requests per kind: enough that every variant TraceGenerator draws for a
/// kind (two CGI probes, three ill-formed lines, ...) is sent.
constexpr int kRequestsPerKind = 8;
/// How long a slowloris head must go unanswered.
constexpr int kSlowWindowMs = 100;

std::vector<RequestKind> MixedKinds() {
  std::vector<RequestKind> kinds;
  for (const auto& [kind, weight] : workload::MixedScenario().mix) {
    kinds.push_back(kind);
  }
  return kinds;
}

int ParseStatus(const std::string& response) {
  std::size_t sp = response.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(response.c_str() + sp + 1);
}

class AttackCorpusTest : public ::testing::Test {
 protected:
  AttackCorpusTest() : gws_(http::DocTree::DemoSite()) {
    EXPECT_TRUE(gws_.SetLocalPolicy("/", kSignaturePolicy).ok());
    http::TcpServer::Options options;
    options.reactor_shards = 2;
    options.worker_threads = 2;
    options.lag_probe_interval_ms = 10;
    tcp_ = std::make_unique<http::TcpServer>(&gws_.server(), options);
    auto started = tcp_->Start();
    EXPECT_TRUE(started.ok()) << started.error().ToString();
  }

  std::uint64_t IdsReports() {
    std::uint64_t total = 0;
    for (const auto& entry : gws_.telemetry().registry().List()) {
      if (entry.name == "ids_reports_total" && entry.counter != nullptr) {
        total += entry.counter->Value();
      }
    }
    return total;
  }

  /// Reports and transport rejects can land just after the client sees the
  /// response (or, for slowloris, after it closes): poll briefly.
  template <typename Pred>
  static bool Eventually(Pred pred) {
    for (int waited_ms = 0; waited_ms < 2000; waited_ms += 5) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  GaaWebServer gws_;
  std::unique_ptr<http::TcpServer> tcp_;
};

class AttackCorpusKindTest
    : public AttackCorpusTest,
      public ::testing::WithParamInterface<RequestKind> {};

TEST_P(AttackCorpusKindTest, EveryRequestGetsItsExactStatus) {
  const RequestKind kind = GetParam();
  const std::string name = workload::RequestKindName(kind);
  const int expected = ExpectedStatus().at(kind);
  workload::TraceGenerator generator({.seed = 7});

  for (int i = 0; i < kRequestsPerKind; ++i) {
    const workload::TraceRequest request = generator.Make(kind);
    if (workload::IsPartialRequestKind(kind)) {
      // The read timeout is the watch window: RoundTrip fails on it with a
      // recv error, where an answer or a close would end it sooner.
      http::TcpClient client(tcp_->port(), kSlowWindowMs);
      auto response = client.RoundTrip(request.raw);
      ASSERT_FALSE(response.ok())
          << name << " (" << request.label << ") was answered within "
          << kSlowWindowMs << " ms: " << response.value().substr(0, 12);
      EXPECT_NE(response.error().ToString().find("recv:"), std::string::npos)
          << name << ": " << response.error().ToString();
      continue;
    }
    http::TcpClient client(tcp_->port());
    auto response = client.RoundTrip(request.raw);
    ASSERT_TRUE(response.ok())
        << name << " (" << request.label << "): "
        << response.error().ToString();
    EXPECT_EQ(ParseStatus(response.value()), expected)
        << name << " (" << request.label << ") misclassified";
  }

  if (workload::IsPartialRequestKind(kind)) {
    // Every abandoned head is diagnosed as truncated at the transport.
    EXPECT_TRUE(Eventually([&] {
      return tcp_->stats().rejected ==
             static_cast<std::uint64_t>(kRequestsPerKind);
    })) << name << ": " << tcp_->stats().rejected << " truncated requests";
  }
  if (workload::IsAttackKind(kind)) {
    EXPECT_TRUE(Eventually([&] { return IdsReports() > 0; }))
        << name << " filed no IDS report";
  } else {
    EXPECT_EQ(IdsReports(), 0u) << name << " was reported to the IDS";
  }
}

INSTANTIATE_TEST_SUITE_P(
    MixedScenario, AttackCorpusKindTest, ::testing::ValuesIn(MixedKinds()),
    [](const ::testing::TestParamInfo<RequestKind>& info) {
      return std::string(workload::RequestKindName(info.param));
    });

TEST_F(AttackCorpusTest, StatusMetricsCarryReactorHealth) {
  auto metrics = http::TcpFetch(
      tcp_->port(), http::BuildGetRequest("/__status/metrics.json"));
  ASSERT_TRUE(metrics.ok()) << metrics.error().ToString();
  for (const char* series :
       {"transport_shard_loop_lag_ms", "transport_shard_ring_depth",
        "transport_shard_ring_high_watermark", "transport_loop_lag_us",
        "transport_dispatch_delay_us"}) {
    EXPECT_NE(metrics.value().find(series), std::string::npos) << series;
  }
}

}  // namespace
}  // namespace gaa::web
