// TCP transport: serve the WebServer pipeline over real sockets.
//
// The deterministic in-process entry points (WebServer::HandleText) remain
// the substrate for tests and benchmarks; this transport adds a real,
// connectable front end.  Unlike the 2003-era close-per-request Apache the
// paper measured, the transport is a sharded multi-reactor (DESIGN.md §10):
//
//   * N event-loop shards (Options::reactor_shards, default
//     min(4, hw_concurrency)), each owning its own SO_REUSEPORT listener,
//     epoll fd, connection table, buffer pool and timeout wheel.  A
//     connection is owned by exactly one shard for its whole life — its
//     state is single-threaded by construction, no lock needed.  With more
//     than one shard, Start() fails if the kernel refuses SO_REUSEPORT.
//   * worker handoff is lock-free in the steady state: per-shard bounded
//     MPMC rings (util::MpmcRing) carry jobs to the shard's workers and
//     completions back, with an eventfd semaphore waking idle workers and
//     an eventfd waking the shard loop.  Rings are sized for
//     max_connections, and a connection has at most one job in flight, so
//     the job ring cannot overflow by construction.
//   * inline fast path: when the framed request is a plain anonymous GET
//     whose access decision is already memoized as a pure terminal YES/NO
//     and the target is a static document within a byte budget
//     (WebServer::InlineFastPathEligible), the shard runs the full
//     pipeline on the event-loop thread — same responses, same audit and
//     attribution side effects, no worker round trip.
//   * responses are written with gathered writes (sendmsg iovecs over
//     head + body chunks) instead of concatenating one wire string;
//     per-shard buffer pools recycle connection read buffers.
//   * HTTP/1.1 keep-alive with pipelined requests handled sequentially
//     per connection, idle-connection timeouts (per-shard lazy timer
//     wheel), and a global max-connections cap with graceful 503 shedding;
//   * Stop() drains in-flight requests before closing (bounded by
//     Options::drain_timeout_ms).
//
// Request framing (the split of the byte stream into request texts) happens
// here, before the parser: framing is attack surface (request smuggling,
// truncated bodies), so ambiguous framing — conflicting Content-Length
// headers, Transfer-Encoding, bodies cut short by EOF — is rejected at the
// transport with 400 and reported through the malformed-request hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/server.h"
#include "util/status.h"

namespace gaa::http {

class TcpServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0: pick an ephemeral port (tests)
    int backlog = 128;
    /// Worker threads running the GAA pipeline, partitioned round-robin
    /// across shards; raised to the shard count if smaller so every shard
    /// has at least one worker.
    std::size_t worker_threads = 4;
    /// Event-loop shards; 0 = min(4, hardware_concurrency).
    std::size_t reactor_shards = 0;
    /// Serve memoized-decision static-doc GETs directly on the event loop
    /// (see header comment); responses stay byte-identical either way.
    bool inline_fast_path = true;
    /// Documents larger than this always go to a worker, keeping the
    /// event loop's per-request work bounded.
    std::size_t inline_max_response_bytes = 64 * 1024;
    /// Connections whose request exceeds this are answered 413 and closed —
    /// the transport-level guard against the §1 oversized-request DoS.
    std::size_t max_request_bytes = 64 * 1024;
    /// A connection with a *partial* request buffered longer than this is
    /// answered 408 and dropped (slow-loris style connection hoarding).
    int read_timeout_ms = 5000;
    /// Serve multiple requests per connection (HTTP/1.1 keep-alive).
    bool keep_alive = true;
    /// An idle keep-alive connection (no partial request pending) older
    /// than this is closed silently.
    int idle_timeout_ms = 15000;
    /// Hard cap on concurrently open connections across all shards; excess
    /// accepts are answered 503 and closed immediately (graceful shedding).
    std::size_t max_connections = 1024;
    /// Close a connection after it has served this many requests.
    std::size_t max_keepalive_requests = 1000;
    /// Stop(): how long to wait for in-flight requests to finish and
    /// responses to flush before force-closing.
    int drain_timeout_ms = 2000;
    /// Explicit drain deadline for Stop(); when >= 0 it overrides
    /// drain_timeout_ms.  Connections still busy (or with unflushed output)
    /// at the deadline are force-closed and *reported* — counted in
    /// Stats::drain_force_closed, exported as the
    /// transport_drain_force_closed gauge, and surfaced through the drain
    /// hook so the integration layer can write an audit event — instead of
    /// being silently destroyed.
    int drain_deadline_ms = -1;
    /// Listener fds inherited from a cluster supervisor (DESIGN.md §15),
    /// one per reactor shard in shard order; each must already be bound +
    /// listening on the same SO_REUSEPORT port.  Ownership transfers to the
    /// transport (closed on Stop()).  When non-empty the transport adopts
    /// these instead of binding its own sockets, which is what lets a
    /// re-exec'd process resume accepting from the inherited backlog
    /// without a refused connection.
    std::vector<int> inherited_listen_fds;
    /// Fire the tick hook from shard 0's timer wheel every this many
    /// milliseconds (0 disables).  The integration layer drives periodic
    /// IDS maintenance — threat-level decay, sketch window aging — off
    /// this, so decay happens even when no requests arrive (DESIGN.md §12).
    int tick_interval_ms = 0;
    /// Arm a per-shard timer-wheel sentinel every this many milliseconds
    /// (0 disables) that measures event-loop lag: the delta between the
    /// sentinel's scheduled deadline and when the loop actually fired it.
    /// A stalled handler on the loop thread (an inline serve gone slow, a
    /// blocked syscall) shows up here even when no request is in flight —
    /// exported as transport_shard_loop_lag_ms gauges and a
    /// transport_loop_lag_us histogram.  Wheel granularity (32ms ticks)
    /// bounds the noise floor at ~64ms.
    int lag_probe_interval_ms = 0;
  };

  /// Connection-layer counters, exported through the stats hook so
  /// adaptive policies (SystemState variables consulted via `var:`
  /// indirection) can see transport-level load.  stats() returns the sum
  /// over shards; shard_stats(i) one shard's own counters.
  struct Stats {
    std::uint64_t accepted = 0;   ///< connections adopted by a shard
    std::uint64_t reused = 0;     ///< requests served on an already-used conn
    std::uint64_t timed_out = 0;  ///< idle/slow connections dropped
    std::uint64_t shed = 0;       ///< accepts answered 503 (over cap)
    std::uint64_t rejected = 0;   ///< framing-level 4xx (413/408/400)
    std::uint64_t requests = 0;   ///< requests handled (worker or inline)
    std::uint64_t inline_served = 0;  ///< requests served on the event loop
    std::uint64_t active = 0;     ///< connections open right now
    std::uint64_t shards = 0;     ///< shard count (aggregate view only)
    std::uint64_t ring_depth = 0;  ///< jobs queued to workers right now
    /// Deepest the job ring has ever been (aggregate view: max over
    /// shards) — the saturation indicator the ring-depth gauge alone
    /// misses between samples.
    std::uint64_t ring_high_watermark = 0;
    std::uint64_t loop_lag_ms = 0;  ///< last lag-probe reading (max over shards)
    /// Connections force-closed at the drain deadline during Stop() while
    /// still busy or holding unflushed output (0 after a clean drain).
    std::uint64_t drain_force_closed = 0;
  };

  /// Invoked from an event-loop thread whenever counters changed during an
  /// event-loop iteration, with the cross-shard aggregate.  Must be cheap
  /// and thread-safe (shards call it concurrently).
  using StatsHook = std::function<void(const Stats&)>;

  TcpServer(WebServer* server, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind, listen and start the shard event loops + workers.
  util::VoidResult Start();

  /// Stop accepting, drain in-flight work, close everything.  Idempotent.
  void Stop();

  /// Install the stats export hook (call before Start()).
  void set_stats_hook(StatsHook hook) { stats_hook_ = std::move(hook); }

  /// Invoked from shard 0's event-loop thread every
  /// Options::tick_interval_ms with the current monotonic time.  Must be
  /// cheap and thread-safe.  Install before Start().
  using TickHook = std::function<void(std::int64_t now_ms)>;
  void set_tick_hook(TickHook hook) { tick_hook_ = std::move(hook); }

  /// Invoked once from Stop() — after every shard has exited — when the
  /// drain deadline force-closed connections, with the count.  The
  /// integration layer turns this into an audit event.  Install before
  /// Start().
  using DrainHook = std::function<void(std::uint64_t force_closed)>;
  void set_drain_hook(DrainHook hook) { drain_hook_ = std::move(hook); }

  bool running() const { return running_.load(); }
  /// The bound port (valid after Start(); useful with port 0).
  std::uint16_t port() const { return port_; }
  const Options& options() const { return options_; }

  /// Cross-shard aggregate (coherent per counter: each is the sum of
  /// monotonic per-shard atomics).
  Stats stats() const;
  /// Shards running (0 before the first Start()).
  std::size_t shard_count() const { return shards_.size(); }
  /// One shard's own counters (`shard` < shard_count()).
  Stats shard_stats(std::size_t shard) const;

  std::uint64_t connections_accepted() const { return stats().accepted; }
  std::uint64_t connections_rejected() const { return stats().rejected; }
  std::uint64_t connections_reused() const { return stats().reused; }
  std::uint64_t connections_timed_out() const { return stats().timed_out; }
  std::uint64_t connections_shed() const { return stats().shed; }
  std::uint64_t active_connections() const { return stats().active; }
  std::uint64_t inline_served() const { return stats().inline_served; }

 private:
  struct Connection;
  struct Shard;
  struct Job;
  struct Done;

  static std::size_t EffectiveShards(const Options& options);

  void ShardLoop(Shard& shard);
  void WorkerLoop(Shard& shard);
  static void WakeShard(Shard& shard);

  void AcceptNew(Shard& shard);
  void AdoptFd(Shard& shard, int fd, std::uint32_t ip_host_order,
               std::uint16_t peer_port, bool shed);
  void ReadConn(Shard& shard, Connection* conn);
  void TryDispatch(Shard& shard, Connection* conn);
  bool ServeInline(Shard& shard, Connection* conn, std::size_t frame_bytes,
                   bool keep_alive_requested);
  void TryWrite(Shard& shard, Connection* conn);
  void UpdateInterest(Shard& shard, Connection* conn);
  void EnqueueResponse(Shard& shard, Connection* conn, HttpResponse& response,
                       bool close_after);
  void RespondAndClose(Shard& shard, Connection* conn, StatusCode status);
  void CloseConn(Shard& shard, std::uint64_t conn_id);
  void DrainCompletions(Shard& shard);
  void Touch(Shard& shard, Connection* conn);
  void NoteArena(Shard& shard, Connection* conn);
  void OnTimerDue(Shard& shard, std::uint64_t conn_id, std::int64_t now_ms);
  void PublishStats(Shard& shard);

  WebServer* server_;
  Options options_;
  StatsHook stats_hook_;
  TickHook tick_hook_;
  DrainHook drain_hook_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Workers run while true; flipped before the job-eventfd shutdown kick.
  std::atomic<bool> workers_run_{false};

  /// Open connections across all shards — the max_connections cap is
  /// global, so shards admit against this single counter.
  std::atomic<std::uint64_t> total_active_{0};

  /// Shards live from Start() until the *next* Start() (not Stop()), so
  /// counters remain readable after shutdown.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
};

/// Minimal blocking client for tests: sends raw request text to
/// 127.0.0.1:port and returns the full response text (reads to EOF; the
/// server closes after the response because the client half-closes).
util::Result<std::string> TcpFetch(std::uint16_t port, const std::string& raw,
                                   int timeout_ms = 5000);

/// Keep-alive client for tests and benchmarks: holds one TCP connection
/// open and performs framed request/response round trips on it.  Response
/// framing relies on the Content-Length header our server always emits
/// (do not use for HEAD requests, whose responses carry a length but no
/// body).
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port, int timeout_ms = 5000);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Send one raw request and read exactly one framed response.  Fails,
  /// closing the connection, when the peer closes first or no complete
  /// response arrives within `timeout_ms` (a recv error).
  util::Result<std::string> RoundTrip(const std::string& raw);

  /// Close the client side of the connection.
  void Close();

 private:
  int fd_ = -1;
  std::string pending_;  // bytes read past the previous response
};

}  // namespace gaa::http
