#include "http/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "http/static_plane.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/arena.h"
#include "util/log.h"
#include "util/mpmc_ring.h"
#include "util/strings.h"

namespace gaa::http {

namespace {

using util::Error;
using util::ErrorCode;

// epoll_event.data.u64 tags for the two non-connection descriptors.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnId = 2;
// Timer-wheel sentinel for the periodic maintenance tick (shard 0 only).
// Wheel ids are otherwise connection ids (>= kFirstConnId), so 0 and 1 are
// free in that namespace — kWakeTag lives in the separate epoll-tag
// namespace.
constexpr std::uint64_t kTickTimerId = 1;
// Per-shard loop-lag sentinel (Options::lag_probe_interval_ms): armed with
// a known deadline; the delta between that deadline and when the wheel
// actually fires it is the time this shard's event loop spent not looping.
constexpr std::uint64_t kLagProbeTimerId = 0;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetReadTimeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Blocking send with EINTR retry (client helpers only; the event loop
/// writes non-blocking).  Returns false when the peer went away.
bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Protocol-level failures poison the framing; close to resynchronize.
bool ProtocolFailure(StatusCode status) {
  return status == StatusCode::kBadRequest ||
         status == StatusCode::kRequestTimeout ||
         status == StatusCode::kPayloadTooLarge ||
         status == StatusCode::kServiceUnavailable;
}

// --- connection read-buffer pool ---------------------------------------------
//
// Shard-local free lists of std::string backing stores: a connection's read
// buffer is recycled when it closes instead of re-growing from empty on the
// next accept.  Loop-thread only, so plain vectors suffice.

constexpr std::size_t kPoolMinCapacity = 512;
constexpr std::size_t kPoolMaxCapacity = 256 * 1024;
constexpr std::size_t kPoolMaxBuffers = 64;

std::string PoolAcquire(std::vector<std::string>& pool) {
  if (pool.empty()) return {};
  std::string buf = std::move(pool.back());
  pool.pop_back();
  buf.clear();
  return buf;
}

void PoolRelease(std::vector<std::string>& pool, std::string&& buf) {
  if (buf.capacity() >= kPoolMinCapacity && buf.capacity() <= kPoolMaxCapacity &&
      pool.size() < kPoolMaxBuffers) {
    pool.push_back(std::move(buf));
  }
}

// --- lazy timer wheel --------------------------------------------------------
//
// Per-shard connection timeouts without scanning the whole connection table
// every loop iteration (the old transport's SweepTimeouts was O(conns) per
// wakeup).  Entries are lazy: a connection arms at most one wheel entry at a
// time, and activity merely updates last_active_ms — when the entry pops,
// the true deadline is recomputed and the entry re-armed if it moved.

class TimerWheel {
 public:
  static constexpr std::int64_t kTickMs = 32;
  static constexpr std::size_t kSlots = 512;  // ~16s horizon per rotation

  void Reset(std::int64_t now_ms) {
    cursor_ = now_ms / kTickMs;
    armed_ = 0;
    for (auto& slot : slots_) slot.clear();
  }

  void Arm(std::uint64_t id, std::int64_t deadline_ms) {
    std::int64_t tick = deadline_ms / kTickMs + 1;  // round up: never early
    if (tick <= cursor_) tick = cursor_ + 1;
    std::int64_t horizon = cursor_ + static_cast<std::int64_t>(kSlots);
    if (tick > horizon) tick = horizon;  // clamp; revalidated when it pops
    slots_[static_cast<std::size_t>(tick) % kSlots].push_back(id);
    ++armed_;
  }

  template <typename DueFn>
  void Advance(std::int64_t now_ms, DueFn&& due) {
    std::int64_t now_tick = now_ms / kTickMs;
    if (armed_ == 0) {
      // Nothing armed: fast-forward so a long idle period costs nothing.
      if (now_tick > cursor_) cursor_ = now_tick;
      return;
    }
    while (cursor_ < now_tick) {
      ++cursor_;
      auto& bucket = slots_[static_cast<std::size_t>(cursor_) % kSlots];
      if (bucket.empty()) continue;
      std::vector<std::uint64_t> ids;
      ids.swap(bucket);
      armed_ -= ids.size();
      for (std::uint64_t id : ids) due(id);
    }
  }

  /// Milliseconds until the next non-empty bucket, clamped to [1, 60000];
  /// -1 when nothing is armed (block indefinitely).
  int NextDueMs(std::int64_t now_ms) const {
    if (armed_ == 0) return -1;
    for (std::size_t i = 1; i <= kSlots; ++i) {
      std::int64_t tick = cursor_ + static_cast<std::int64_t>(i);
      if (slots_[static_cast<std::size_t>(tick) % kSlots].empty()) continue;
      std::int64_t wait = tick * kTickMs - now_ms;
      if (wait < 1) wait = 1;
      if (wait > 60'000) wait = 60'000;
      return static_cast<int>(wait);
    }
    return 1;  // armed_ > 0 implies some bucket is non-empty
  }

 private:
  std::int64_t cursor_ = 0;  ///< last fully processed tick
  std::size_t armed_ = 0;
  std::array<std::vector<std::uint64_t>, kSlots> slots_{};
};

// --- request framing ---------------------------------------------------------
//
// Decide where one request ends in a connection's byte stream, before any
// parsing.  Framing is attack surface: conflicting Content-Length headers
// and Transfer-Encoding are the raw material of request smuggling, so both
// are rejected here rather than papered over.

enum class FrameStatus { kNeedMore, kComplete, kTooLarge, kBad };

struct FrameResult {
  FrameStatus status = FrameStatus::kNeedMore;
  std::size_t total_bytes = 0;  ///< head + separator + body (kComplete)
  bool keep_alive = true;       ///< what the request asked for (kComplete)
  std::string detail;           ///< diagnosis (kBad)
  /// Original-case request slices (views into the caller's buffer, valid
  /// only until it is mutated; kComplete only).
  std::string_view method;
  std::string_view target;
  std::string_view host;               ///< raw Host value ("" when absent)
  std::string_view if_none_match;      ///< conditional-GET validators,
  std::string_view if_modified_since;  ///< empty when absent
  /// Plain anonymous GET/HEAD with no body — the shape the inline fast
  /// paths may consider (the transport still applies the full admission
  /// check).
  bool inline_candidate = false;
};

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c;
}

/// Case-insensitive equality against an already-lower-case needle.
/// Framing runs on the event loop for every request, so it compares in
/// place rather than lowercasing a copy of the head — no allocation.
bool EqualsLower(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (AsciiLower(s[i]) != lower[i]) return false;
  }
  return true;
}

/// Case-insensitive containment of an already-lower-case needle.
bool ContainsLower(std::string_view hay, std::string_view lower) {
  if (hay.size() < lower.size()) return false;
  for (std::size_t i = 0; i + lower.size() <= hay.size(); ++i) {
    std::size_t j = 0;
    while (j < lower.size() && AsciiLower(hay[i + j]) == lower[j]) ++j;
    if (j == lower.size()) return true;
  }
  return false;
}

FrameResult FrameRequest(const std::string& buf, std::size_t max_bytes) {
  FrameResult out;
  std::size_t head_end = buf.find("\r\n\r\n");
  std::size_t sep = 4;
  if (head_end == std::string::npos) {
    head_end = buf.find("\n\n");
    sep = 2;
  }
  if (head_end == std::string::npos) {
    out.status =
        buf.size() > max_bytes ? FrameStatus::kTooLarge : FrameStatus::kNeedMore;
    return out;
  }
  std::string_view head(buf.data(), head_end);

  // Request-line version decides the keep-alive default.
  std::size_t line_end = head.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  out.keep_alive = ContainsLower(request_line, "http/1.1");

  std::optional<std::int64_t> content_length;
  bool has_authorization = false;
  std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 1;
  while (pos < head.size()) {
    std::size_t eol = head.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? head.substr(pos)
                                : head.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;  // parser's problem
    std::string_view name = util::Trim(line.substr(0, colon));
    std::string_view value = util::Trim(line.substr(colon + 1));
    if (EqualsLower(name, "content-length")) {
      auto parsed = util::ParseInt(value);
      if (!parsed.has_value() || *parsed < 0) {
        out.status = FrameStatus::kBad;
        out.detail = "unparsable content-length";
        return out;
      }
      if (content_length.has_value() && *content_length != *parsed) {
        out.status = FrameStatus::kBad;
        out.detail = "conflicting duplicate content-length";
        return out;
      }
      content_length = *parsed;
    } else if (EqualsLower(name, "transfer-encoding")) {
      out.status = FrameStatus::kBad;
      out.detail = "transfer-encoding not supported";
      return out;
    } else if (EqualsLower(name, "connection")) {
      if (ContainsLower(value, "close")) {
        out.keep_alive = false;
      } else if (ContainsLower(value, "keep-alive")) {
        out.keep_alive = true;
      }
    } else if (EqualsLower(name, "authorization")) {
      has_authorization = true;
    } else if (EqualsLower(name, "host")) {
      // First value wins for fast-path tenant routing; a conflicting
      // duplicate is the parser's reject (the probe can only ever send a
      // would-be fast-path request down the worker path).
      if (out.host.empty()) out.host = value;
    } else if (EqualsLower(name, "if-none-match")) {
      out.if_none_match = value;
    } else if (EqualsLower(name, "if-modified-since")) {
      out.if_modified_since = value;
    }
  }

  std::size_t body = content_length.has_value()
                         ? static_cast<std::size_t>(*content_length)
                         : 0;
  std::size_t total = head_end + sep + body;
  if (total > max_bytes) {
    out.status = FrameStatus::kTooLarge;
    return out;
  }
  if (buf.size() < total) {
    out.status = FrameStatus::kNeedMore;
    return out;
  }
  out.status = FrameStatus::kComplete;
  out.total_bytes = total;

  // Method/target from the original-case request line, for the fast-path
  // probes.
  std::size_t raw_line_end =
      line_end == std::string_view::npos ? head_end : line_end;
  std::string_view line0(buf.data(), raw_line_end);
  std::size_t sp1 = line0.find(' ');
  if (sp1 != std::string_view::npos) {
    std::size_t sp2 = line0.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      out.method = line0.substr(0, sp1);
      out.target = line0.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  out.inline_candidate =
      body == 0 && !has_authorization &&
      (out.method == "GET" || out.method == "HEAD");
  return out;
}

}  // namespace

// --- per-connection state machine -------------------------------------------

struct TcpServer::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  util::Ipv4Address ip;
  std::uint16_t peer_port = 0;

  std::string in;  ///< bytes read, not yet framed into a request (pooled)

  /// One response chunk awaiting the socket.  Either `owned` holds the
  /// bytes (a serialized head, a moved response body — recycled through the
  /// shard buffer pool) or `view` aliases bytes that outlive the write:
  /// static-plane templates, DocTree documents, or this connection's arena.
  struct OutChunk {
    std::string owned;
    std::string_view view;
    std::string_view View() const {
      return owned.empty() ? view : std::string_view(owned);
    }
  };
  /// Response chunks, written with gathered sendmsg — head and body travel
  /// as separate chunks, never concatenated.  Consumed with a cursor
  /// (out_head) instead of pop_front so a drained queue keeps its capacity;
  /// on the template fast path a request costs zero queue allocations.
  std::vector<OutChunk> outq;
  std::size_t out_head = 0;   ///< first unsent chunk
  std::size_t out_off = 0;    ///< sent prefix of outq[out_head]
  std::size_t out_bytes = 0;  ///< unsent bytes across all chunks

  /// Per-request bump arena: holds the bytes a fast-path response needs to
  /// mutate per request (the Date line).  Reset — keeping its largest
  /// block — each time the output queue fully drains.
  util::Arena arena;
  std::size_t arena_noted = 0;  ///< arena bytes counted in the shard gauge

  void PushOwned(std::string bytes) {
    out_bytes += bytes.size();
    outq.push_back(OutChunk{std::move(bytes), {}});
  }
  void PushView(std::string_view bytes) {
    out_bytes += bytes.size();
    outq.push_back(OutChunk{{}, bytes});
  }

  bool busy = false;              ///< request handed to a worker
  bool close_after_write = false;
  bool read_eof = false;          ///< peer half-closed its sending side
  bool shed = false;              ///< over-cap connection being 503'd
  bool timer_armed = false;       ///< has a live timer-wheel entry
  std::uint64_t served = 0;       ///< requests dispatched on this connection
  std::int64_t last_active_ms = 0;

  bool HasOutput() const { return out_bytes > 0; }
};

/// A framed request on its way to a shard worker.
struct TcpServer::Job {
  std::uint64_t conn_id = 0;
  std::string raw;
  util::Ipv4Address ip;
  std::uint16_t port = 0;
  bool keep_alive = false;
  std::unique_ptr<telemetry::RequestTrace> trace;
  std::size_t queue_span = 0;
  /// Push timestamp: the worker that pops this job records now - enqueue_us
  /// into the wakeup-to-dispatch histogram (how long work sat in the ring
  /// plus how long the eventfd wakeup took to land).
  std::int64_t enqueue_us = 0;
};

/// A finished response on its way back to the owning shard's loop.
struct TcpServer::Done {
  std::uint64_t conn_id = 0;
  std::string head;  ///< status line + headers + blank line
  std::string body;  ///< owned body bytes (dynamic responses)
  /// Zero-copy body (static documents): a view into DocTree storage, which
  /// is stable for the server's lifetime, so it may cross threads.  Set
  /// only when `body` is empty.
  std::string_view body_view;
  bool close_after = false;
};

// --- shard -------------------------------------------------------------------

struct TcpServer::Shard {
  Shard(std::size_t index_arg, std::size_t ring_capacity)
      : index(index_arg),
        jobs(ring_capacity),
        done(ring_capacity) {}

  const std::size_t index;
  int listen_fd = -1;  ///< own SO_REUSEPORT listener
  int epoll_fd = -1;
  int wake_fd = -1;  ///< nonblocking eventfd: wakes the shard loop
  int job_efd = -1;  ///< EFD_SEMAPHORE eventfd: parks idle workers

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::uint64_t next_conn_id = kFirstConnId;
  TimerWheel wheel;
  std::vector<std::string> buf_pool;
  bool stats_dirty = false;
  /// Arena bytes reserved across this shard's connections (loop-thread
  /// bookkeeping, exported through the transport_arena_bytes gauge).
  std::int64_t arena_bytes = 0;

  // Lock-free worker handoff: loop pushes jobs, workers push completions.
  util::MpmcRing<Job> jobs;
  util::MpmcRing<Done> done;

  // Counters: written by this shard's threads, read by any (stats()).
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> reused{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> shed_count{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> inline_srv{0};
  std::atomic<std::uint64_t> active{0};

  // Reactor health (DESIGN.md §10 observability): job-ring occupancy
  // sampled at push/publish points, its all-time high watermark, and the
  // last loop-lag probe reading.  Written by the loop thread, read by any
  // (stats(), /__status).
  std::atomic<std::uint64_t> ring_depth{0};
  std::atomic<std::uint64_t> ring_hwm{0};
  std::atomic<std::uint64_t> loop_lag_ms{0};
  /// Connections this shard force-closed at the Stop() drain deadline.
  std::atomic<std::uint64_t> force_closed{0};
  /// Scheduled fire time of the in-flight lag probe (loop-thread only).
  std::int64_t lag_probe_deadline_ms = 0;

  // Per-shard gauges (resolved at Start(); null when telemetry is off).
  telemetry::Gauge* g_active = nullptr;
  telemetry::Gauge* g_requests = nullptr;
  telemetry::Gauge* g_inline = nullptr;
  telemetry::Gauge* g_accepted = nullptr;
  telemetry::Gauge* g_arena = nullptr;
  telemetry::Gauge* g_loop_lag = nullptr;
  telemetry::Gauge* g_ring_depth = nullptr;
  telemetry::Gauge* g_ring_hwm = nullptr;
  telemetry::Gauge* g_force_closed = nullptr;
  telemetry::Histogram* h_loop_lag = nullptr;   ///< lag probe, microseconds
  telemetry::Histogram* h_dispatch = nullptr;   ///< wakeup-to-dispatch, us

  /// Sample the job ring and fold the reading into the high watermark.
  void SampleRing() {
    std::size_t depth = jobs.ApproxSize();
    ring_depth.store(depth, std::memory_order_relaxed);
    if (depth > ring_hwm.load(std::memory_order_relaxed)) {
      ring_hwm.store(depth, std::memory_order_relaxed);
    }
  }

  std::thread thread;
};

TcpServer::TcpServer(WebServer* server, Options options)
    : server_(server), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

std::size_t TcpServer::EffectiveShards(const Options& options) {
  if (options.reactor_shards != 0) return options.reactor_shards;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<std::size_t>(4, hw);
}

util::VoidResult TcpServer::Start() {
  if (running_.load()) {
    return Error(ErrorCode::kAlreadyExists, "server already running");
  }
  const std::size_t nshards = EffectiveShards(options_);
  // A connection has at most one job (and one completion) in flight, so
  // rings sized past max_connections cannot overflow by construction.
  const std::size_t ring_capacity = options_.max_connections + 16;

  shards_.clear();  // previous run's shards — counters reset here
  total_active_.store(0);
  port_ = options_.port;

  auto fail = [this](const std::string& what) -> util::VoidResult {
    std::string message = what + ": " + std::strerror(errno);
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) ::close(shard->listen_fd);
      if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
      if (shard->wake_fd >= 0) ::close(shard->wake_fd);
      if (shard->job_efd >= 0) ::close(shard->job_efd);
    }
    shards_.clear();
    return Error(ErrorCode::kUnavailable, message);
  };

  // Inherited-listener mode (cluster re-exec, DESIGN.md §15): adopt one
  // pre-bound listening fd per shard instead of binding our own.
  const bool inherited = !options_.inherited_listen_fds.empty();
  if (inherited && options_.inherited_listen_fds.size() != nshards) {
    for (int fd : options_.inherited_listen_fds) ::close(fd);
    return Error(ErrorCode::kInvalidArgument,
                 "inherited_listen_fds must supply exactly one fd per shard");
  }

  // Every shard binds its own listener on one port; the kernel balances
  // accepts across them.
  const bool reuseport = nshards > 1;

  for (std::size_t i = 0; i < nshards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, ring_capacity));
    Shard& shard = *shards_.back();
    shard.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (shard.epoll_fd < 0) return fail("epoll_create1");
    shard.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard.wake_fd < 0) return fail("eventfd(wake)");
    shard.job_efd = ::eventfd(0, EFD_CLOEXEC | EFD_SEMAPHORE);
    if (shard.job_efd < 0) return fail("eventfd(jobs)");

    if (inherited) {
      // The fd was created by the supervisor (bound, listening, sharing the
      // port via SO_REUSEPORT); we own it from here.  Status flags survive
      // exec, but re-assert nonblocking + cloexec rather than trusting the
      // parent's setup.
      shard.listen_fd = options_.inherited_listen_fds[i];
      int fl = ::fcntl(shard.listen_fd, F_GETFL);
      if (fl < 0 ||
          ::fcntl(shard.listen_fd, F_SETFL, fl | O_NONBLOCK) < 0) {
        return fail("fcntl(inherited listener, O_NONBLOCK)");
      }
      int fdfl = ::fcntl(shard.listen_fd, F_GETFD);
      if (fdfl >= 0) ::fcntl(shard.listen_fd, F_SETFD, fdfl | FD_CLOEXEC);
      if (i == 0) {
        sockaddr_in addr{};
        socklen_t len = sizeof(addr);
        if (::getsockname(shard.listen_fd,
                          reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
          return fail("getsockname(inherited listener)");
        }
        port_ = ntohs(addr.sin_port);
      }
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenTag;
      if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, shard.listen_fd, &lev) <
          0) {
        return fail("epoll_ctl(inherited listener)");
      }
    } else {
      shard.listen_fd =
          ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (shard.listen_fd < 0) return fail("socket");
      int one = 1;
      setsockopt(shard.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (reuseport) {
        if (setsockopt(shard.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                       sizeof(one)) < 0) {
          return fail("setsockopt(SO_REUSEPORT)");
        }
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      if (::bind(shard.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
        return fail("bind");
      }
      if (i == 0) {
        socklen_t len = sizeof(addr);
        ::getsockname(shard.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      &len);
        port_ = ntohs(addr.sin_port);  // shards 1..n join this port
      }
      if (::listen(shard.listen_fd, options_.backlog) < 0) {
        return fail("listen");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenTag;
      if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, shard.listen_fd, &ev) <
          0) {
        return fail("epoll_ctl(listen)");
      }
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, shard.wake_fd, &ev) < 0) {
      return fail("epoll_ctl(wake)");
    }
  }

  telemetry::Telemetry* telemetry =
      server_ != nullptr ? server_->telemetry() : nullptr;
  if (telemetry != nullptr) {
    for (auto& shard : shards_) {
      const std::string label =
          "shard=\"" + std::to_string(shard->index) + "\"";
      auto& registry = telemetry->registry();
      shard->g_active = registry.GetGauge("transport_shard_active", label);
      shard->g_requests = registry.GetGauge("transport_shard_requests", label);
      shard->g_inline =
          registry.GetGauge("transport_shard_inline_served", label);
      shard->g_accepted = registry.GetGauge("transport_shard_accepted", label);
      shard->g_arena = registry.GetGauge("transport_arena_bytes", label);
      shard->g_loop_lag =
          registry.GetGauge("transport_shard_loop_lag_ms", label);
      shard->g_ring_depth =
          registry.GetGauge("transport_shard_ring_depth", label);
      shard->g_ring_hwm =
          registry.GetGauge("transport_shard_ring_high_watermark", label);
      shard->g_force_closed =
          registry.GetGauge("transport_drain_force_closed", label);
      shard->h_loop_lag =
          registry.GetHistogram("transport_loop_lag_us", label,
                                telemetry::Histogram::WideLatencyBoundsUs());
      shard->h_dispatch =
          registry.GetHistogram("transport_dispatch_delay_us", label,
                                telemetry::Histogram::WideLatencyBoundsUs());
    }
  }

  stopping_.store(false);
  workers_run_.store(true);
  running_.store(true);

  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->wheel.Reset(NowMs());
    // The maintenance tick is process-wide work (IDS decay, sketch aging),
    // so exactly one shard carries it.
    if (s->index == 0 && options_.tick_interval_ms > 0 && tick_hook_) {
      s->wheel.Arm(kTickTimerId, NowMs() + options_.tick_interval_ms);
    }
    // Every shard carries its own lag probe: lag is a property of one
    // event-loop thread, not of the process.
    if (options_.lag_probe_interval_ms > 0) {
      s->lag_probe_deadline_ms = NowMs() + options_.lag_probe_interval_ms;
      s->wheel.Arm(kLagProbeTimerId, s->lag_probe_deadline_ms);
    }
    s->thread = std::thread([this, s] { ShardLoop(*s); });
  }
  std::size_t nworkers = std::max(options_.worker_threads, nshards);
  for (std::size_t i = 0; i < nworkers; ++i) {
    Shard* s = shards_[i % nshards].get();
    workers_.emplace_back([this, s] { WorkerLoop(*s); });
  }
  return util::VoidResult::Ok();
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  for (auto& shard : shards_) WakeShard(*shard);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Shard loops have exited; release the workers.  The flag flips before
  // the eventfd kick, so a worker that wakes either pops a remaining job or
  // sees the flag down and exits — no lost wakeup.
  workers_run_.store(false);
  const std::uint64_t kick = 1u << 20;  // far more tokens than workers
  for (auto& shard : shards_) {
    ssize_t n = ::write(shard->job_efd, &kick, sizeof(kick));
    (void)n;
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // All threads joined: drain leftovers and close descriptors.  The shards
  // themselves stay alive so counters remain readable until the next
  // Start().
  for (auto& shard : shards_) {
    Job job;
    while (shard->jobs.Pop(job)) {
    }
    Done done;
    while (shard->done.Pop(done)) {
    }
    if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    if (shard->wake_fd >= 0) ::close(shard->wake_fd);
    if (shard->job_efd >= 0) ::close(shard->job_efd);
    shard->epoll_fd = shard->wake_fd = shard->job_efd = -1;
    shard->listen_fd = -1;  // closed by the shard loop on its way out
  }
  // Final aggregate publish after every shard settled, so post-Stop
  // observers (SystemState assertions, tests) see the closing values.
  if (stats_hook_) stats_hook_(stats());
  const std::uint64_t forced = stats().drain_force_closed;
  if (forced > 0 && drain_hook_) drain_hook_(forced);
}

TcpServer::Stats TcpServer::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    out.accepted += shard->accepted.load(std::memory_order_relaxed);
    out.reused += shard->reused.load(std::memory_order_relaxed);
    out.timed_out += shard->timed_out.load(std::memory_order_relaxed);
    out.shed += shard->shed_count.load(std::memory_order_relaxed);
    out.rejected += shard->rejected.load(std::memory_order_relaxed);
    out.requests += shard->requests.load(std::memory_order_relaxed);
    out.inline_served += shard->inline_srv.load(std::memory_order_relaxed);
    out.active += shard->active.load(std::memory_order_relaxed);
    out.ring_depth += shard->ring_depth.load(std::memory_order_relaxed);
    out.ring_high_watermark =
        std::max(out.ring_high_watermark,
                 shard->ring_hwm.load(std::memory_order_relaxed));
    out.loop_lag_ms = std::max(
        out.loop_lag_ms, shard->loop_lag_ms.load(std::memory_order_relaxed));
    out.drain_force_closed +=
        shard->force_closed.load(std::memory_order_relaxed);
  }
  out.shards = shards_.size();
  return out;
}

TcpServer::Stats TcpServer::shard_stats(std::size_t shard) const {
  Stats out;
  if (shard >= shards_.size()) return out;
  const Shard& s = *shards_[shard];
  out.accepted = s.accepted.load(std::memory_order_relaxed);
  out.reused = s.reused.load(std::memory_order_relaxed);
  out.timed_out = s.timed_out.load(std::memory_order_relaxed);
  out.shed = s.shed_count.load(std::memory_order_relaxed);
  out.rejected = s.rejected.load(std::memory_order_relaxed);
  out.requests = s.requests.load(std::memory_order_relaxed);
  out.inline_served = s.inline_srv.load(std::memory_order_relaxed);
  out.active = s.active.load(std::memory_order_relaxed);
  out.ring_depth = s.ring_depth.load(std::memory_order_relaxed);
  out.ring_high_watermark = s.ring_hwm.load(std::memory_order_relaxed);
  out.loop_lag_ms = s.loop_lag_ms.load(std::memory_order_relaxed);
  out.drain_force_closed = s.force_closed.load(std::memory_order_relaxed);
  return out;
}

void TcpServer::WakeShard(Shard& shard) {
  std::uint64_t one = 1;
  for (;;) {
    ssize_t n = ::write(shard.wake_fd, &one, sizeof(one));
    if (n >= 0 || errno != EINTR) return;
  }
}

void TcpServer::PublishStats(Shard& shard) {
  if (!shard.stats_dirty) return;
  shard.stats_dirty = false;
  shard.SampleRing();
  if (shard.g_active != nullptr) {
    shard.g_active->Set(static_cast<std::int64_t>(
        shard.active.load(std::memory_order_relaxed)));
    shard.g_requests->Set(static_cast<std::int64_t>(
        shard.requests.load(std::memory_order_relaxed)));
    shard.g_inline->Set(static_cast<std::int64_t>(
        shard.inline_srv.load(std::memory_order_relaxed)));
    shard.g_accepted->Set(static_cast<std::int64_t>(
        shard.accepted.load(std::memory_order_relaxed)));
    shard.g_arena->Set(shard.arena_bytes);
    shard.g_loop_lag->Set(static_cast<std::int64_t>(
        shard.loop_lag_ms.load(std::memory_order_relaxed)));
    shard.g_ring_depth->Set(static_cast<std::int64_t>(
        shard.ring_depth.load(std::memory_order_relaxed)));
    shard.g_ring_hwm->Set(static_cast<std::int64_t>(
        shard.ring_hwm.load(std::memory_order_relaxed)));
    shard.g_force_closed->Set(static_cast<std::int64_t>(
        shard.force_closed.load(std::memory_order_relaxed)));
  }
  if (stats_hook_) stats_hook_(stats());
}

// --- shard event loop --------------------------------------------------------

void TcpServer::ShardLoop(Shard& shard) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool listen_open = shard.listen_fd >= 0;
  std::int64_t drain_deadline_ms = -1;

  for (;;) {
    std::int64_t now = NowMs();
    if (stopping_.load()) {
      if (listen_open) {
        ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, shard.listen_fd, nullptr);
        ::close(shard.listen_fd);
        listen_open = false;
      }
      if (drain_deadline_ms < 0) {
        drain_deadline_ms = now + options_.drain_deadline_ms;
      }
      bool pending = false;
      for (const auto& [id, conn] : shard.conns) {
        if (conn->busy || conn->HasOutput()) {
          pending = true;
          break;
        }
      }
      if (!pending || now >= drain_deadline_ms) break;
    }

    int timeout_ms = shard.wheel.NextDueMs(now);
    if (stopping_.load()) {
      timeout_ms = timeout_ms < 0 ? 20 : std::min(timeout_ms, 20);
    }
    int n = ::epoll_wait(shard.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — cannot continue
    }
    for (int i = 0; i < n; ++i) {
      std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        if (!stopping_.load()) AcceptNew(shard);
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t drained;
        while (::read(shard.wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = shard.conns.find(tag);
      if (it == shard.conns.end()) continue;
      if (events[i].events & EPOLLIN) ReadConn(shard, it->second.get());
      it = shard.conns.find(tag);
      if (it == shard.conns.end()) continue;
      if (events[i].events & EPOLLOUT) {
        TryWrite(shard, it->second.get());
        it = shard.conns.find(tag);
        if (it == shard.conns.end()) continue;
        // The flushed response may have unblocked a pipelined request.
        Connection* conn = it->second.get();
        if (!conn->busy && !conn->in.empty()) TryDispatch(shard, conn);
        it = shard.conns.find(tag);
        if (it == shard.conns.end()) continue;
      }
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // Full close / reset from the peer (a half-close arrives as a
        // plain EOF on read instead) — nothing more to deliver.
        CloseConn(shard, tag);
      }
    }
    DrainCompletions(shard);
    std::int64_t after = NowMs();
    shard.wheel.Advance(
        after, [this, &shard, after](std::uint64_t id) {
          OnTimerDue(shard, id, after);
        });
    PublishStats(shard);
  }

  // Anything still busy or holding unflushed output here was cut off by the
  // drain deadline — account for it instead of silently destroying it.
  std::uint64_t forced = 0;
  for (auto& [id, conn] : shard.conns) {
    if (conn->busy || conn->HasOutput()) ++forced;
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
  }
  if (forced > 0) {
    shard.force_closed.fetch_add(forced, std::memory_order_relaxed);
  }
  total_active_.fetch_sub(shard.conns.size());
  shard.conns.clear();
  shard.active.store(0);
  shard.arena_bytes = 0;
  shard.stats_dirty = true;
  if (listen_open) ::close(shard.listen_fd);
  PublishStats(shard);
}

void TcpServer::AcceptNew(Shard& shard) {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept4(shard.listen_fd, reinterpret_cast<sockaddr*>(&peer),
                       &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient error: wait for the next event
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::uint32_t ip = ntohl(peer.sin_addr.s_addr);
    std::uint16_t peer_port = ntohs(peer.sin_port);

    // Reserve the global slot first, so the max_connections cap holds
    // across every shard's listener.
    bool over_cap = total_active_.fetch_add(1, std::memory_order_relaxed) >=
                    options_.max_connections;
    AdoptFd(shard, fd, ip, peer_port, /*shed=*/over_cap);
  }
}

void TcpServer::AdoptFd(Shard& shard, int fd, std::uint32_t ip_host_order,
                        std::uint16_t peer_port, bool shed) {
  auto conn = std::make_unique<Connection>();
  conn->id = shard.next_conn_id++;
  conn->fd = fd;
  conn->ip = util::Ipv4Address(ip_host_order);
  conn->peer_port = peer_port;
  conn->last_active_ms = NowMs();
  conn->in = PoolAcquire(shard.buf_pool);

  if (shed) {
    // Graceful shedding: queue a 503 and keep the connection around just
    // long enough for the peer to read it (closing immediately would race
    // the client's request and turn the 503 into a reset).
    shard.shed_count.fetch_add(1, std::memory_order_relaxed);
    conn->shed = true;
    HttpResponse resp = HttpResponse::Make(StatusCode::kServiceUnavailable);
    resp.headers["Connection"] = "close";
    resp.headers["Retry-After"] = "1";
    EnqueueResponse(shard, conn.get(), resp, /*close_after=*/false);
  } else {
    shard.accepted.fetch_add(1, std::memory_order_relaxed);
  }
  shard.stats_dirty = true;

  epoll_event ev{};
  ev.data.u64 = conn->id;
  ev.events = EPOLLIN;
  if (conn->HasOutput()) ev.events |= EPOLLOUT;
  Connection* raw = conn.get();
  shard.conns.emplace(raw->id, std::move(conn));
  shard.active.store(shard.conns.size(), std::memory_order_relaxed);
  if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    CloseConn(shard, raw->id);
    return;
  }
  Touch(shard, raw);
  if (raw->shed) TryWrite(shard, raw);
}

void TcpServer::ReadConn(Shard& shard, Connection* conn) {
  char buf[16384];
  bool progress = false;
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      progress = true;
      if (conn->shed) continue;  // discard; the 503 is already queued
      conn->in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->read_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(shard, conn->id);
    return;
  }
  if (progress || conn->read_eof) Touch(shard, conn);
  TryDispatch(shard, conn);
}

void TcpServer::TryDispatch(Shard& shard, Connection* conn) {
  for (;;) {
    if (conn->shed) {
      if (conn->read_eof && !conn->HasOutput()) {
        CloseConn(shard, conn->id);
      } else {
        UpdateInterest(shard, conn);
      }
      return;
    }
    if (conn->busy || conn->close_after_write || stopping_.load()) {
      UpdateInterest(shard, conn);
      return;
    }

    FrameResult frame = FrameRequest(conn->in, options_.max_request_bytes);
    switch (frame.status) {
      case FrameStatus::kNeedMore:
        if (!conn->read_eof) {
          UpdateInterest(shard, conn);
          return;
        }
        if (conn->in.empty()) {
          // Clean end of a keep-alive conversation.
          if (!conn->HasOutput()) {
            CloseConn(shard, conn->id);
          } else {
            conn->close_after_write = true;
            UpdateInterest(shard, conn);
          }
          return;
        }
        // The peer closed mid-request: a truncated head or Content-Length
        // body.  The fragment must never reach the handler as well-formed.
        shard.rejected.fetch_add(1, std::memory_order_relaxed);
        shard.stats_dirty = true;
        server_->ReportMalformed(
            RequestDefect::kTruncatedBody,
            "peer closed after " + std::to_string(conn->in.size()) +
                " bytes of an incomplete request",
            conn->ip);
        conn->in.clear();
        RespondAndClose(shard, conn, StatusCode::kBadRequest);
        return;
      case FrameStatus::kTooLarge:
        shard.rejected.fetch_add(1, std::memory_order_relaxed);
        shard.stats_dirty = true;
        conn->in.clear();
        RespondAndClose(shard, conn, StatusCode::kPayloadTooLarge);
        return;
      case FrameStatus::kBad:
        shard.rejected.fetch_add(1, std::memory_order_relaxed);
        shard.stats_dirty = true;
        server_->ReportMalformed(RequestDefect::kBadHeader, frame.detail,
                                 conn->ip);
        conn->in.clear();
        RespondAndClose(shard, conn, StatusCode::kBadRequest);
        return;
      case FrameStatus::kComplete:
        break;
    }

    // No further request can arrive after EOF with nothing buffered past
    // this frame; tell the client we will close.
    bool more_possible =
        !conn->read_eof || conn->in.size() > frame.total_bytes;
    bool keep = options_.keep_alive && frame.keep_alive && more_possible &&
                conn->served + 1 < options_.max_keepalive_requests;

    // Template tier: anonymous GET/HEAD of a static document on a server
    // whose controller admits everything unchecked.  The response is
    // assembled from pre-serialized header templates and a DocTree body
    // view — zero body copies, and (past warm-up) zero allocations.
    if (options_.inline_fast_path && frame.inline_candidate) {
      WebServer::StaticFastResponse fast;
      if (server_->TryServeStaticFast(frame.method, frame.target, frame.host,
                                      frame.if_none_match,
                                      frame.if_modified_since, conn->ip, keep,
                                      options_.inline_max_response_bytes,
                                      &fast)) {
        if (conn->served > 0) {
          shard.reused.fetch_add(1, std::memory_order_relaxed);
        }
        ++conn->served;
        shard.requests.fetch_add(1, std::memory_order_relaxed);
        shard.inline_srv.fetch_add(1, std::memory_order_relaxed);
        shard.stats_dirty = true;
        conn->in.erase(0, frame.total_bytes);  // frame views dangle here
        // Only the Date line varies per request; it lives on the
        // connection's bump arena until the queue drains.
        char* date = static_cast<char*>(
            conn->arena.Alloc(HttpDateCache::kLineBytes, 1));
        std::memcpy(date, fast.date_line, HttpDateCache::kLineBytes);
        conn->PushView(fast.head_pre);
        conn->PushView(std::string_view(date, HttpDateCache::kLineBytes));
        conn->PushView(fast.head_post);
        if (!fast.body.empty()) conn->PushView(fast.body);
        if (!keep) conn->close_after_write = true;
        NoteArena(shard, conn);
        Touch(shard, conn);
        std::uint64_t id = conn->id;
        TryWrite(shard, conn);  // may close the connection
        auto it = shard.conns.find(id);
        if (it == shard.conns.end()) return;
        conn = it->second.get();
        continue;  // a pipelined request may already be buffered
      }
    }

    if (options_.inline_fast_path && frame.inline_candidate &&
        server_->InlineFastPathEligible(frame.method, frame.target, frame.host,
                                        options_.inline_max_response_bytes,
                                        conn->ip)) {
      std::uint64_t id = conn->id;
      ServeInline(shard, conn, frame.total_bytes, keep);
      TryWrite(shard, conn);  // may close the connection
      auto it = shard.conns.find(id);
      if (it == shard.conns.end()) return;
      conn = it->second.get();
      continue;  // a pipelined request may already be buffered
    }

    Job job;
    job.conn_id = conn->id;
    job.raw = conn->in.substr(0, frame.total_bytes);
    conn->in.erase(0, frame.total_bytes);
    job.ip = conn->ip;
    job.port = conn->peer_port;
    // Begin the trace at framing so it covers time queued for a worker.
    telemetry::Telemetry* telemetry = server_->telemetry();
    if (telemetry != nullptr && telemetry->tracing_enabled()) {
      job.trace = telemetry->tracer().Begin();  // null when not sampled
      if (job.trace) {
        job.trace->client_ip = conn->ip.ToString();
        job.queue_span = job.trace->OpenSpan("queue");
      }
    }
    job.keep_alive = keep;
    job.enqueue_us = NowUs();
    conn->busy = true;
    if (conn->served > 0) {
      shard.reused.fetch_add(1, std::memory_order_relaxed);
    }
    ++conn->served;
    shard.requests.fetch_add(1, std::memory_order_relaxed);
    shard.stats_dirty = true;
    Touch(shard, conn);
    if (!shard.jobs.Push(std::move(job))) {
      // Structurally unreachable (ring sized past max_connections); shed
      // defensively rather than wedge the connection.
      conn->busy = false;
      shard.rejected.fetch_add(1, std::memory_order_relaxed);
      RespondAndClose(shard, conn, StatusCode::kServiceUnavailable);
      return;
    }
    // Only this loop thread pushes, so sampling right after the push
    // catches the true per-shard high watermark, not a between-samples
    // approximation.
    shard.SampleRing();
    std::uint64_t one = 1;
    ssize_t n = ::write(shard.job_efd, &one, sizeof(one));
    (void)n;
    UpdateInterest(shard, conn);
    return;
  }
}

bool TcpServer::ServeInline(Shard& shard, Connection* conn,
                            std::size_t frame_bytes,
                            bool keep_alive_requested) {
  std::string_view raw(conn->in.data(), frame_bytes);
  std::unique_ptr<telemetry::RequestTrace> trace;
  telemetry::Telemetry* telemetry = server_->telemetry();
  if (telemetry != nullptr && telemetry->tracing_enabled()) {
    trace = telemetry->tracer().Begin();
    if (trace) {
      trace->client_ip = conn->ip.ToString();
      // Marker span — the analogue of the worker path's "queue" span,
      // recording that this request never left the event loop.
      std::size_t span = trace->OpenSpan("transport.inline_serve");
      trace->CloseSpan(span);
    }
  }
  if (conn->served > 0) {
    shard.reused.fetch_add(1, std::memory_order_relaxed);
  }
  ++conn->served;
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  shard.inline_srv.fetch_add(1, std::memory_order_relaxed);
  shard.stats_dirty = true;

  HttpResponse response =
      server_->HandleText(raw, conn->ip, conn->peer_port, std::move(trace));
  conn->in.erase(0, frame_bytes);  // raw dangles from here on
  bool close_after = !keep_alive_requested || ProtocolFailure(response.status);
  response.headers["Connection"] = close_after ? "close" : "keep-alive";
  EnqueueResponse(shard, conn, response, close_after);
  Touch(shard, conn);
  return true;
}

void TcpServer::TryWrite(Shard& shard, Connection* conn) {
  while (conn->out_bytes > 0) {
    // Gathered write: up to 8 response chunks (heads and bodies) go out in
    // one syscall without ever being concatenated.
    constexpr int kMaxIov = 8;
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t off = conn->out_off;
    for (std::size_t i = conn->out_head; i < conn->outq.size(); ++i) {
      if (iovcnt == kMaxIov) break;
      std::string_view chunk = conn->outq[i].View();
      iov[iovcnt].iov_base = const_cast<char*>(chunk.data()) + off;
      iov[iovcnt].iov_len = chunk.size() - off;
      ++iovcnt;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t wrote = static_cast<std::size_t>(n);
      conn->out_bytes -= wrote;
      while (wrote > 0) {
        Connection::OutChunk& front = conn->outq[conn->out_head];
        std::size_t avail = front.View().size() - conn->out_off;
        if (wrote >= avail) {
          wrote -= avail;
          if (!front.owned.empty()) {
            PoolRelease(shard.buf_pool, std::move(front.owned));
            front.owned.clear();
          }
          front.view = {};
          ++conn->out_head;
          conn->out_off = 0;
        } else {
          conn->out_off += wrote;
          wrote = 0;
        }
      }
      conn->last_active_ms = NowMs();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateInterest(shard, conn);
      return;
    }
    CloseConn(shard, conn->id);
    return;
  }
  // Fully drained: clear() keeps the vector's capacity, and the arena
  // keeps its largest block — the next fast-path response on this
  // connection allocates nothing.
  conn->outq.clear();
  conn->out_head = 0;
  conn->out_off = 0;
  conn->arena.Reset();
  NoteArena(shard, conn);
  if (conn->close_after_write) {
    CloseConn(shard, conn->id);
    return;
  }
  if (conn->shed) {
    if (conn->read_eof) {
      CloseConn(shard, conn->id);
    } else {
      UpdateInterest(shard, conn);
    }
    return;
  }
  if (conn->read_eof && conn->in.empty() && !conn->busy) {
    CloseConn(shard, conn->id);
    return;
  }
  UpdateInterest(shard, conn);
}

void TcpServer::UpdateInterest(Shard& shard, Connection* conn) {
  epoll_event ev{};
  ev.data.u64 = conn->id;
  ev.events = 0;
  // While a worker holds the connection's request we stop reading — the
  // kernel buffer back-pressures pipelining clients.
  if (!conn->read_eof && !conn->busy) ev.events |= EPOLLIN;
  if (conn->HasOutput()) ev.events |= EPOLLOUT;
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServer::EnqueueResponse(Shard& shard, Connection* conn,
                                HttpResponse& response, bool close_after) {
  (void)shard;
  conn->PushOwned(response.SerializeHead());
  if (!response.body.empty()) {
    conn->PushOwned(std::move(response.body));
  } else if (!response.body_view.empty()) {
    // Static-document body: a view into DocTree storage, stable for the
    // server's lifetime — queued without copying.
    conn->PushView(response.body_view);
  }
  if (close_after) conn->close_after_write = true;
}

void TcpServer::RespondAndClose(Shard& shard, Connection* conn,
                                StatusCode status) {
  HttpResponse resp = HttpResponse::Make(status);
  resp.headers["Connection"] = "close";
  EnqueueResponse(shard, conn, resp, /*close_after=*/true);
  std::uint64_t id = conn->id;
  TryWrite(shard, conn);  // may close the connection
  auto it = shard.conns.find(id);
  if (it != shard.conns.end()) Touch(shard, it->second.get());
}

void TcpServer::CloseConn(Shard& shard, std::uint64_t conn_id) {
  auto it = shard.conns.find(conn_id);
  if (it == shard.conns.end()) return;
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  PoolRelease(shard.buf_pool, std::move(it->second->in));
  shard.arena_bytes -= static_cast<std::int64_t>(it->second->arena_noted);
  shard.conns.erase(it);
  shard.active.store(shard.conns.size(), std::memory_order_relaxed);
  total_active_.fetch_sub(1, std::memory_order_relaxed);
  shard.stats_dirty = true;
}

void TcpServer::DrainCompletions(Shard& shard) {
  Done done;
  while (shard.done.Pop(done)) {
    auto it = shard.conns.find(done.conn_id);
    if (it == shard.conns.end()) continue;  // died while processing
    Connection* conn = it->second.get();
    conn->busy = false;
    conn->PushOwned(std::move(done.head));
    if (!done.body.empty()) {
      conn->PushOwned(std::move(done.body));
    } else if (!done.body_view.empty()) {
      conn->PushView(done.body_view);
    }
    if (done.close_after) conn->close_after_write = true;
    Touch(shard, conn);
    std::uint64_t id = conn->id;
    TryWrite(shard, conn);
    it = shard.conns.find(id);
    if (it == shard.conns.end()) continue;
    conn = it->second.get();
    // A pipelined request may already be buffered; serve it next.
    if (!conn->busy && !conn->in.empty()) TryDispatch(shard, conn);
  }
}

void TcpServer::Touch(Shard& shard, Connection* conn) {
  conn->last_active_ms = NowMs();
  if (conn->timer_armed) return;  // lazy: revalidated when the entry pops
  bool mid_request = !conn->in.empty() || conn->HasOutput() || conn->shed;
  std::int64_t deadline =
      conn->last_active_ms +
      (mid_request ? options_.read_timeout_ms : options_.idle_timeout_ms);
  shard.wheel.Arm(conn->id, deadline);
  conn->timer_armed = true;
}

void TcpServer::NoteArena(Shard& shard, Connection* conn) {
  std::size_t reserved = conn->arena.bytes_reserved();
  if (reserved != conn->arena_noted) {
    shard.arena_bytes += static_cast<std::int64_t>(reserved) -
                         static_cast<std::int64_t>(conn->arena_noted);
    conn->arena_noted = reserved;
    shard.stats_dirty = true;
  }
}

void TcpServer::OnTimerDue(Shard& shard, std::uint64_t conn_id,
                           std::int64_t now_ms) {
  if (conn_id == kTickTimerId) {
    if (tick_hook_) tick_hook_(now_ms);
    if (options_.tick_interval_ms > 0) {
      shard.wheel.Arm(kTickTimerId, now_ms + options_.tick_interval_ms);
    }
    return;
  }
  if (conn_id == kLagProbeTimerId) {
    // Scheduled-vs-actual delta: everything that kept this loop thread
    // from advancing the wheel — a stalled inline handler, a blocked
    // syscall, scheduler starvation — lands in this number.
    std::int64_t lag = now_ms - shard.lag_probe_deadline_ms;
    if (lag < 0) lag = 0;
    shard.loop_lag_ms.store(static_cast<std::uint64_t>(lag),
                            std::memory_order_relaxed);
    if (shard.h_loop_lag != nullptr) {
      shard.h_loop_lag->Record(static_cast<std::uint64_t>(lag) * 1000);
    }
    shard.stats_dirty = true;
    if (options_.lag_probe_interval_ms > 0) {
      shard.lag_probe_deadline_ms = now_ms + options_.lag_probe_interval_ms;
      shard.wheel.Arm(kLagProbeTimerId, shard.lag_probe_deadline_ms);
    }
    return;
  }
  auto it = shard.conns.find(conn_id);
  if (it == shard.conns.end()) return;  // closed while armed
  Connection* conn = it->second.get();
  conn->timer_armed = false;
  // Worker latency is not the client's fault; the completion re-arms via
  // Touch.
  if (conn->busy) return;
  bool mid_request = !conn->in.empty() || conn->HasOutput() || conn->shed;
  std::int64_t deadline =
      conn->last_active_ms +
      (mid_request ? options_.read_timeout_ms : options_.idle_timeout_ms);
  if (deadline > now_ms) {
    // Activity since arming (or the state changed): re-arm for the true
    // deadline — the lazy-revalidation half of the wheel's contract.
    shard.wheel.Arm(conn->id, deadline);
    conn->timer_armed = true;
    return;
  }
  if (mid_request) {
    if (conn->shed || conn->HasOutput()) {
      // Peer is not draining our response (or a shed conn overstayed).
      CloseConn(shard, conn->id);
      return;
    }
    // Slow-loris style partial request: answer 408 and drop.
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
    shard.stats_dirty = true;
    conn->in.clear();
    RespondAndClose(shard, conn, StatusCode::kRequestTimeout);
    return;
  }
  shard.timed_out.fetch_add(1, std::memory_order_relaxed);
  shard.stats_dirty = true;
  CloseConn(shard, conn->id);
}

// --- workers -----------------------------------------------------------------

void TcpServer::WorkerLoop(Shard& shard) {
  for (;;) {
    Job job;
    if (!shard.jobs.Pop(job)) {
      if (!workers_run_.load(std::memory_order_acquire)) return;
      // Park on the semaphore eventfd: one token per queued job, so a
      // token's arrival means a job is (or was) there to pop.
      std::uint64_t token;
      ssize_t n = ::read(shard.job_efd, &token, sizeof(token));
      (void)n;
      continue;
    }
    if (job.trace) job.trace->CloseSpan(job.queue_span);
    if (shard.h_dispatch != nullptr && job.enqueue_us > 0) {
      std::int64_t delay = NowUs() - job.enqueue_us;
      shard.h_dispatch->Record(delay > 0 ? static_cast<std::uint64_t>(delay)
                                         : 0);
    }
    HttpResponse response =
        server_->HandleText(job.raw, job.ip, job.port, std::move(job.trace));
    bool close_after = !job.keep_alive || ProtocolFailure(response.status);
    response.headers["Connection"] = close_after ? "close" : "keep-alive";
    Done done;
    done.conn_id = job.conn_id;
    done.head = response.SerializeHead();
    done.body = std::move(response.body);
    if (done.body.empty()) done.body_view = response.body_view;
    done.close_after = close_after;
    while (!shard.done.Push(std::move(done))) {
      // Ring full means the loop is behind by a full ring of completions —
      // unreachable by sizing, but never drop a response.
      std::this_thread::yield();
    }
    WakeShard(shard);
  }
}

// --- blocking clients (tests / benchmarks) -----------------------------------

namespace {

int ConnectLoopback(std::uint16_t port, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  SetReadTimeout(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINTR) {
      ::close(fd);
      return -1;
    }
    // Interrupted connect completes asynchronously: wait for writability
    // and check SO_ERROR.
    pollfd pfd{fd, POLLOUT, 0};
    for (;;) {
      int n = ::poll(&pfd, 1, timeout_ms);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        return -1;
      }
      break;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

}  // namespace

util::Result<std::string> TcpFetch(std::uint16_t port, const std::string& raw,
                                   int timeout_ms) {
  int fd = ConnectLoopback(port, timeout_ms);
  if (fd < 0) {
    return Error(ErrorCode::kUnavailable,
                 std::string("connect: ") + std::strerror(errno));
  }
  if (!SendAll(fd, raw)) {
    ::close(fd);
    return Error(ErrorCode::kUnavailable, "send failed");
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  if (response.empty()) {
    return Error(ErrorCode::kUnavailable, "empty response");
  }
  return response;
}

TcpClient::TcpClient(std::uint16_t port, int timeout_ms) {
  fd_ = ConnectLoopback(port, timeout_ms);
}

TcpClient::~TcpClient() { Close(); }

void TcpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

util::Result<std::string> TcpClient::RoundTrip(const std::string& raw) {
  if (fd_ < 0) {
    return Error(ErrorCode::kUnavailable, "not connected");
  }
  if (!SendAll(fd_, raw)) {
    Close();
    return Error(ErrorCode::kUnavailable, "send failed (connection closed?)");
  }
  std::string data = std::move(pending_);
  pending_.clear();
  char buf[4096];
  std::size_t total = std::string::npos;
  for (;;) {
    if (total == std::string::npos) {
      std::size_t head_end = data.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        std::string head = util::ToLower(data.substr(0, head_end));
        std::size_t cl = head.find("content-length:");
        std::size_t body = 0;
        if (cl != std::string::npos) {
          std::size_t eol = head.find('\n', cl);
          auto value = util::Trim(
              std::string_view(head).substr(cl + 15, eol - cl - 15));
          if (auto parsed = util::ParseInt(value); parsed && *parsed >= 0) {
            body = static_cast<std::size_t>(*parsed);
          }
        }
        total = head_end + 4 + body;
      }
    }
    if (total != std::string::npos && data.size() >= total) break;
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    if (n == 0) {
      return Error(ErrorCode::kUnavailable,
                   data.empty() ? "connection closed"
                                : "truncated response at connection close");
    }
    return Error(ErrorCode::kUnavailable,
                 std::string("recv: ") + std::strerror(errno));
  }
  pending_.assign(data.begin() + static_cast<std::ptrdiff_t>(total),
                  data.end());
  data.resize(total);
  return data;
}

}  // namespace gaa::http
