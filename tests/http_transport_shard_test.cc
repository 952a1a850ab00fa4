// Sharded multi-reactor transport (DESIGN.md §10): cross-shard stats
// aggregation, concurrent load across shards (the TSan target), and the
// inline fast path's byte-identical-response guarantee at the transport
// level.
#include "http/tcp_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/doc_tree.h"
#include "telemetry/telemetry.h"
#include "util/strings.h"

namespace gaa::http {
namespace {

class TransportShardTest : public ::testing::Test {
 protected:
  // A simulated clock pins the Date header, so byte-identity comparisons
  // between the fast-path and worker-path transports are deterministic.
  TransportShardTest()
      : clock_(0),
        tree_(DocTree::DemoSite()),
        server_(&tree_, &controller_, &clock_) {}

  void StartTcp(TcpServer::Options options = {}) {
    tcp_ = std::make_unique<TcpServer>(&server_, options);
    auto started = tcp_->Start();
    ASSERT_TRUE(started.ok()) << started.error().ToString();
  }

  /// Sum of one per-shard counter, for comparing against the aggregate.
  template <typename F>
  std::uint64_t SumShards(F field) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < tcp_->shard_count(); ++i) {
      total += field(tcp_->shard_stats(i));
    }
    return total;
  }

  util::SimulatedClock clock_;
  DocTree tree_;
  AllowAllController controller_;
  WebServer server_;
  std::unique_ptr<TcpServer> tcp_;
};

TEST_F(TransportShardTest, AggregateStatsAreSumOfShardStats) {
  TcpServer::Options options;
  options.reactor_shards = 2;
  StartTcp(options);
  ASSERT_EQ(tcp_->shard_count(), 2u);

  constexpr int kConns = 64;
  std::string raw = BuildGetRequest("/index.html");
  for (int i = 0; i < kConns; ++i) {
    TcpClient client(tcp_->port());
    ASSERT_TRUE(client.connected());
    auto response = client.RoundTrip(raw);
    ASSERT_TRUE(response.ok()) << response.error().ToString();
    EXPECT_NE(response.value().find("200 OK"), std::string::npos);
  }
  tcp_->Stop();

  TcpServer::Stats total = tcp_->stats();
  EXPECT_EQ(total.shards, 2u);
  EXPECT_EQ(total.accepted, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(total.requests, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(total.accepted,
            SumShards([](const TcpServer::Stats& s) { return s.accepted; }));
  EXPECT_EQ(total.requests,
            SumShards([](const TcpServer::Stats& s) { return s.requests; }));
  EXPECT_EQ(total.inline_served,
            SumShards(
                [](const TcpServer::Stats& s) { return s.inline_served; }));
  // All connections closed: active is exactly zero.  An unsigned underflow
  // (double-decrement on any close path) would show up as a huge value.
  EXPECT_EQ(total.active, 0u);
}

TEST_F(TransportShardTest, ConcurrentKeepAliveLoadAcrossShards) {
  TcpServer::Options options;
  options.reactor_shards = 4;
  StartTcp(options);

  constexpr int kThreads = 8;
  constexpr int kRequests = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  std::uint16_t port = tcp_->port();
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([port, &ok] {
      TcpClient client(port);
      if (!client.connected()) return;
      std::string raw = BuildGetRequest("/index.html");
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.RoundTrip(raw);
        if (response.ok() &&
            response.value().find("200 OK") != std::string::npos) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  tcp_->Stop();

  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_EQ(tcp_->stats().requests,
            static_cast<std::uint64_t>(kThreads) * kRequests);
  EXPECT_EQ(tcp_->stats().accepted, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(tcp_->stats().active, 0u);
}

TEST_F(TransportShardTest, InlineFastPathMatchesWorkerPathByteForByte) {
  // Two transports over the same pipeline: one with the inline fast path,
  // one forced through workers.  AllowAllController memoizes every
  // decision, so the inline server can serve static GETs on the loop.
  TcpServer::Options inline_on;
  inline_on.reactor_shards = 1;
  StartTcp(inline_on);

  TcpServer::Options inline_off = inline_on;
  inline_off.inline_fast_path = false;
  TcpServer worker_only(&server_, inline_off);
  auto started = worker_only.Start();
  ASSERT_TRUE(started.ok()) << started.error().ToString();

  TcpClient fast(tcp_->port());
  TcpClient slow(worker_only.port());
  for (const char* target : {"/index.html", "/docs/guide.html",
                             "/docs/api.html", "/missing.html"}) {
    std::string raw = BuildGetRequest(target);
    auto a = fast.RoundTrip(raw);
    auto b = slow.RoundTrip(raw);
    ASSERT_TRUE(a.ok()) << a.error().ToString();
    ASSERT_TRUE(b.ok()) << b.error().ToString();
    EXPECT_EQ(a.value(), b.value()) << target;
  }
  EXPECT_GT(tcp_->inline_served(), 0u);
  EXPECT_EQ(worker_only.inline_served(), 0u);
  worker_only.Stop();
}

/// First value of `name` in a raw response head (case-sensitive: our
/// serializer emits canonical names).
std::string HeaderValue(const std::string& raw, const std::string& name) {
  std::size_t pos = raw.find("\r\n" + name + ": ");
  if (pos == std::string::npos) return {};
  pos += 2 + name.size() + 2;
  std::size_t end = raw.find("\r\n", pos);
  return raw.substr(pos, end - pos);
}

TEST_F(TransportShardTest, ConditionalGetMatchesWorkerPathByteForByte) {
  TcpServer::Options inline_on;
  inline_on.reactor_shards = 1;
  StartTcp(inline_on);
  TcpServer::Options inline_off = inline_on;
  inline_off.inline_fast_path = false;
  TcpServer worker_only(&server_, inline_off);
  ASSERT_TRUE(worker_only.Start().ok());

  TcpClient fast(tcp_->port());
  TcpClient slow(worker_only.port());
  auto first = fast.RoundTrip(BuildGetRequest("/index.html"));
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  std::string etag = HeaderValue(first.value(), "ETag");
  std::string last_modified = HeaderValue(first.value(), "Last-Modified");
  ASSERT_FALSE(etag.empty());
  ASSERT_FALSE(last_modified.empty());

  // If-None-Match hit: 304, empty body, byte-identical across paths.
  std::string inm = BuildGetRequest("/index.html", {{"If-None-Match", etag}});
  auto a = fast.RoundTrip(inm);
  auto b = slow.RoundTrip(inm);
  ASSERT_TRUE(a.ok()) << a.error().ToString();
  ASSERT_TRUE(b.ok()) << b.error().ToString();
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value().find("HTTP/1.1 304 Not Modified\r\n"),
            std::string::npos);
  EXPECT_NE(a.value().find("Content-Length: 0\r\n"), std::string::npos);
  EXPECT_EQ(a.value().find("<html>"), std::string::npos);
  EXPECT_EQ(HeaderValue(a.value(), "ETag"), etag);

  // If-Modified-Since at the document's stamp: also 304, also identical.
  std::string ims =
      BuildGetRequest("/index.html", {{"If-Modified-Since", last_modified}});
  auto c = fast.RoundTrip(ims);
  auto d = slow.RoundTrip(ims);
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_EQ(c.value(), d.value());
  EXPECT_NE(c.value().find("304 Not Modified"), std::string::npos);

  // A stale validator gets the full 200 on both paths.
  std::string stale =
      BuildGetRequest("/index.html", {{"If-None-Match", "\"stale\""}});
  auto e = fast.RoundTrip(stale);
  auto f = slow.RoundTrip(stale);
  ASSERT_TRUE(e.ok() && f.ok());
  EXPECT_EQ(e.value(), f.value());
  EXPECT_NE(e.value().find("200 OK"), std::string::npos);

  EXPECT_GT(tcp_->inline_served(), 0u);
  EXPECT_EQ(worker_only.inline_served(), 0u);
  worker_only.Stop();
}

TEST_F(TransportShardTest, HeadMatchesGetHeadBlockAcrossPaths) {
  TcpServer::Options inline_on;
  inline_on.reactor_shards = 1;
  StartTcp(inline_on);
  TcpServer::Options inline_off = inline_on;
  inline_off.inline_fast_path = false;
  TcpServer worker_only(&server_, inline_off);
  ASSERT_TRUE(worker_only.Start().ok());

  // Connection: close pins the keep-alive decision so the comparison is
  // deterministic; TcpFetch half-closes and reads to EOF, which also lets
  // it frame bodyless HEAD responses.
  for (const char* target : {"/docs/guide.html", "/missing.html"}) {
    std::string get_raw =
        BuildGetRequest(target, {{"Connection", "close"}});
    std::string head_raw = "HEAD" + get_raw.substr(3);
    auto get_fast = TcpFetch(tcp_->port(), get_raw);
    auto head_fast = TcpFetch(tcp_->port(), head_raw);
    auto get_slow = TcpFetch(worker_only.port(), get_raw);
    auto head_slow = TcpFetch(worker_only.port(), head_raw);
    ASSERT_TRUE(get_fast.ok() && head_fast.ok() && get_slow.ok() &&
                head_slow.ok())
        << target;
    // GET matches across transports; HEAD matches across transports; and
    // HEAD is exactly the GET's head block — same Content-Length, no body.
    EXPECT_EQ(get_fast.value(), get_slow.value()) << target;
    EXPECT_EQ(head_fast.value(), head_slow.value()) << target;
    std::size_t head_end = get_fast.value().find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_EQ(head_fast.value(), get_fast.value().substr(0, head_end + 4))
        << target;
  }
  EXPECT_GT(tcp_->inline_served(), 0u);
  worker_only.Stop();
}

TEST_F(TransportShardTest, ArenaGaugeTracksFastPathConnections) {
  // The per-shard transport_arena_bytes gauge: zero before traffic, grows
  // once fast-path responses bump Date lines, and returns to zero when the
  // connections close.
  telemetry::Telemetry telemetry;
  telemetry.set_tracing_enabled(false);  // traced requests skip the tier
  server_.set_telemetry(&telemetry);
  TcpServer::Options options;
  options.reactor_shards = 1;
  StartTcp(options);
  {
    TcpClient client(tcp_->port());
    auto response = client.RoundTrip(BuildGetRequest("/index.html"));
    ASSERT_TRUE(response.ok()) << response.error().ToString();
  }
  tcp_->Stop();
  EXPECT_GT(tcp_->inline_served(), 0u);
  auto* gauge = telemetry.registry().GetGauge("transport_arena_bytes",
                                              "shard=\"0\"");
  EXPECT_EQ(gauge->Value(), 0);  // all connections closed and reclaimed
  server_.set_telemetry(nullptr);
}

TEST_F(TransportShardTest, QueryTargetsNeverServeInline) {
  TcpServer::Options options;
  options.reactor_shards = 1;
  StartTcp(options);
  TcpClient client(tcp_->port());
  auto response = client.RoundTrip(BuildGetRequest("/cgi-bin/search?q=x"));
  ASSERT_TRUE(response.ok()) << response.error().ToString();
  EXPECT_NE(response.value().find("200 OK"), std::string::npos);
  // Dynamic content (query strings, CGI) always goes to a worker.
  EXPECT_EQ(tcp_->inline_served(), 0u);
  EXPECT_EQ(tcp_->stats().requests, 1u);
}

TEST_F(TransportShardTest, InlineByteBudgetSendsLargeDocsToWorkers) {
  TcpServer::Options options;
  options.reactor_shards = 1;
  options.inline_max_response_bytes = 1;  // nothing fits the budget
  StartTcp(options);
  TcpClient client(tcp_->port());
  auto response = client.RoundTrip(BuildGetRequest("/index.html"));
  ASSERT_TRUE(response.ok()) << response.error().ToString();
  EXPECT_NE(response.value().find("200 OK"), std::string::npos);
  EXPECT_EQ(tcp_->inline_served(), 0u);
}

TEST_F(TransportShardTest, AuthorizationHeaderDisqualifiesInlineServe) {
  TcpServer::Options options;
  options.reactor_shards = 1;
  StartTcp(options);
  TcpClient client(tcp_->port());
  auto response = client.RoundTrip(BuildGetRequest(
      "/index.html", {{"Authorization", "Basic YWxpY2U6cHc="}}));
  ASSERT_TRUE(response.ok()) << response.error().ToString();
  EXPECT_NE(response.value().find("200 OK"), std::string::npos);
  // Credentialed requests carry identity context the memo key must see;
  // they always take the worker path.
  EXPECT_EQ(tcp_->inline_served(), 0u);
}

// Controller that stalls inside Check() — on the event-loop thread when
// the decision is memoized (inline pipeline tier), on a worker otherwise.
class StallingController final : public AccessController {
 public:
  StallingController(int stall_ms, bool memoized)
      : stall_ms_(stall_ms), memoized_(memoized) {}

  Verdict Check(RequestRec&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    return Verdict::Allow();
  }
  bool DecisionIsMemoized(std::string_view, std::string_view,
                          util::Ipv4Address, std::string_view) const override {
    return memoized_;
  }

 private:
  int stall_ms_;
  bool memoized_;
};

TEST_F(TransportShardTest, LagProbeSeesStalledEventLoop) {
  // A memoized-decision controller pulls the request onto the event-loop
  // thread (inline pipeline tier), then stalls there for 400ms.  The lag
  // probe's next firing is late by roughly the stall, and the tracked
  // histogram max keeps the spike visible after later probes read ~0
  // again.  Timer-wheel granularity (32ms ticks, round-up arming) bounds
  // the noise floor at ~64ms, so the stall must dwarf it.
  StallingController stalling(400, /*memoized=*/true);
  WebServer server(&tree_, &stalling, &clock_);
  telemetry::Telemetry telemetry;
  telemetry.set_tracing_enabled(false);  // traced requests skip the tier
  server.set_telemetry(&telemetry);

  TcpServer::Options options;
  options.reactor_shards = 1;
  options.worker_threads = 1;
  options.lag_probe_interval_ms = 20;
  TcpServer tcp(&server, options);
  auto started = tcp.Start();
  ASSERT_TRUE(started.ok()) << started.error().ToString();

  // Let a few probes fire unstalled to prove the baseline stays below the
  // wheel's granularity noise floor.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  {
    TcpClient client(tcp.port());
    auto response = client.RoundTrip(BuildGetRequest("/index.html"));
    ASSERT_TRUE(response.ok()) << response.error().ToString();
  }
  EXPECT_GT(tcp.inline_served(), 0u);  // the stall really ran on the loop
  // Give the delayed probe time to fire and record.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  tcp.Stop();

  auto* lag_histogram = telemetry.registry().GetHistogram(
      "transport_loop_lag_us", "shard=\"0\"",
      telemetry::Histogram::WideLatencyBoundsUs());
  auto snap = lag_histogram->TakeSnapshot();
  ASSERT_GT(snap.count, 0u);
  // The probe that waited out the 400ms stall must have seen most of it.
  EXPECT_GE(snap.max, 150'000u) << "stall invisible to the lag probe";
}

TEST_F(TransportShardTest, RingHighWatermarkRecordsQueuedJobs) {
  // One deliberately slow worker and many concurrent clients: while the
  // worker stalls in Check(), later arrivals queue in the job ring, and
  // the push-side sample must capture that occupancy as the high
  // watermark even though the depth gauge reads 0 again by the end.
  StallingController slow(5, /*memoized=*/false);
  WebServer server(&tree_, &slow, &clock_);
  TcpServer::Options options;
  options.reactor_shards = 1;
  options.worker_threads = 1;
  options.inline_fast_path = false;  // every request takes the job ring
  TcpServer tcp(&server, options);
  auto started = tcp.Start();
  ASSERT_TRUE(started.ok()) << started.error().ToString();

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> clients;
  std::atomic<int> errors{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&tcp, &errors] {
      TcpClient client(tcp.port());
      std::string raw = BuildGetRequest("/index.html");
      for (int i = 0; i < kRequestsEach; ++i) {
        if (!client.RoundTrip(raw).ok()) ++errors;
      }
    });
  }
  for (auto& t : clients) t.join();
  tcp.Stop();

  EXPECT_EQ(errors.load(), 0);
  TcpServer::Stats total = tcp.stats();
  EXPECT_EQ(total.requests,
            static_cast<std::uint64_t>(kClients * kRequestsEach));
  EXPECT_GE(total.ring_high_watermark, 1u);
  EXPECT_EQ(total.ring_depth, 0u);  // drained by shutdown
  // The aggregate is the max over shards, not a sum.
  std::uint64_t max_shard = 0;
  for (std::size_t i = 0; i < tcp.shard_count(); ++i) {
    max_shard = std::max(max_shard, tcp.shard_stats(i).ring_high_watermark);
  }
  EXPECT_EQ(total.ring_high_watermark, max_shard);
}

}  // namespace
}  // namespace gaa::http
