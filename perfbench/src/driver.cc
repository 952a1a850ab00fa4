#include "driver.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "spans.h"

namespace perfbench {

namespace {

/// How long a phase waits for outstanding responses after its last send.
constexpr std::int64_t kDrainNs = 5'000'000'000;
/// How long a slowloris connection is watched after its unfinished head is
/// out.  Any response byte in that window fails the request; the server may
/// close the connection silently.  (Its read timeout answers 408 only after
/// 5 s, long after the client has given up.)
constexpr std::int64_t kSlowlorisWatchNs = 100'000'000;

struct Conn {
  int fd = -1;
  std::uint32_t lane = kOneShot;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::uint32_t> pending;  ///< requests awaiting a response
  bool no_more = false;   ///< session over: close once pending drains
  bool partial = false;   ///< slowloris: watched for a response, then closed
  std::uint32_t partial_index = 0;
  std::int64_t watch_until = -1;  ///< slowloris: end of its watch window
  bool watched = false;           ///< still in Worker::watching_
};

bool HeaderHas(std::string_view head, std::string_view lower_name,
               std::string_view* value) {
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const std::size_t start = pos + 2;
    std::size_t end = head.find("\r\n", start);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(start, end - start);
    if (line.size() > lower_name.size() && line[lower_name.size()] == ':') {
      bool match = true;
      for (std::size_t i = 0; i < lower_name.size() && match; ++i) {
        char c = line[i];
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        match = c == lower_name[i];
      }
      if (match) {
        std::string_view v = line.substr(lower_name.size() + 1);
        while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
        *value = v;
        return true;
      }
    }
    pos = end;
  }
  return false;
}

class Worker {
 public:
  Worker(const Schedule& schedule, const std::vector<Payload>& payloads,
         std::uint16_t port, std::vector<Outcome>* outcomes,
         std::int64_t epoch_ns, bool spans, std::uint64_t span_base)
      : schedule_(schedule),
        payloads_(payloads),
        port_(port),
        outcomes_(*outcomes),
        epoch_ns_(epoch_ns),
        spans_(spans),
        span_base_(span_base),
        lane_conn_(schedule.lanes, nullptr) {}

  ~Worker() {
    for (auto& c : conns_) {
      if (c && c->fd >= 0) close(c->fd);
    }
    if (ep_ >= 0) close(ep_);
  }

  void Assign(std::uint32_t index) { mine_.push_back(index); }

  std::uint64_t connections() const { return opened_; }

  void Run() {
    prctl(PR_SET_TIMERSLACK, 1UL);
    ep_ = epoll_create1(EPOLL_CLOEXEC);
    std::size_t next = 0;
    const std::int64_t last_due =
        mine_.empty() ? 0 : schedule_.requests[mine_.back()].due_ns;
    epoll_event events[256];
    for (;;) {
      std::int64_t now = Now();
      while (next < mine_.size() &&
             schedule_.requests[mine_[next]].due_ns <= now) {
        Send(mine_[next++], now);
        now = Now();
      }
      EndWatches(now);
      if (next == mine_.size() && live_ == 0) break;
      if (next == mine_.size() && now > last_due + kDrainNs) {
        for (auto& c : conns_) {
          if (c) Drop(c.get());
        }
        break;
      }
      std::int64_t wait_ns = 20'000'000;
      if (next < mine_.size()) {
        wait_ns = schedule_.requests[mine_[next]].due_ns - now;
      }
      if (!watching_.empty()) {
        wait_ns = std::min(wait_ns, watching_.front()->watch_until - now);
      }
      if (wait_ns < 0) wait_ns = 0;
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      const int n = epoll_pwait2(ep_, events, 256, &ts, nullptr);
      for (int i = 0; i < n; ++i) {
        Conn* c = static_cast<Conn*>(events[i].data.ptr);
        if (c->fd < 0) continue;
        if (events[i].events & EPOLLOUT) Flush(c);
        if (c->fd >= 0 && (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
          Read(c);
        }
      }
      Reap();
    }
  }

 private:
  std::int64_t Now() const { return MonoNs() - epoch_ns_; }

  Conn* Open(std::uint32_t source, std::uint32_t lane) {
    const int fd =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    int one = 1;
    setsockopt(fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof(one));
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(source);
    sockaddr_in peer{};
    peer.sin_family = AF_INET;
    peer.sin_port = htons(port_);
    peer.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(fd, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0 ||
        (connect(fd, reinterpret_cast<sockaddr*>(&peer), sizeof(peer)) != 0 &&
         errno != EINPROGRESS)) {
      close(fd);
      return nullptr;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->lane = lane;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.ptr = conn.get();
    epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
    ++opened_;
    ++live_;
    conns_.push_back(std::move(conn));
    return conns_.back().get();
  }

  void Send(std::uint32_t index, std::int64_t now) {
    const Request& r = schedule_.requests[index];
    const Payload& p = payloads_[r.payload];
    outcomes_[index].sent_ns = now;
    Conn* c = nullptr;
    if (r.lane == kOneShot) {
      c = Open(r.source, kOneShot);
      if (c != nullptr) {
        c->no_more = true;
        c->partial = p.partial;
        c->partial_index = index;
      }
    } else {
      c = lane_conn_[r.lane];
      if (c == nullptr) c = lane_conn_[r.lane] = Open(r.source, r.lane);
      if (c != nullptr && r.session_end) {
        c->no_more = true;
        lane_conn_[r.lane] = nullptr;
      }
    }
    if (c == nullptr) return;  // no connection: the request fails
    if (!p.partial) c->pending.push_back(index);
    c->out.append(p.bytes);
    Flush(c);
  }

  void Flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EAGAIN) return;
      Drop(c);
      return;
    }
    c->out.clear();
    c->out_off = 0;
    if (c->partial && c->watch_until < 0) {
      // The unfinished head is out: watch for a response that must not come.
      // The window is the same for every connection, so watching_ stays
      // sorted by its end.
      c->watch_until = Now() + kSlowlorisWatchNs;
      c->watched = true;
      watching_.push_back(c);
    }
  }

  /// Ends the watch windows that are over: the slowloris client gives up,
  /// unanswered, so its request passes.
  void EndWatches(std::int64_t now) {
    while (!watching_.empty() && watching_.front()->watch_until <= now) {
      Conn* c = watching_.front();
      watching_.pop_front();
      c->watched = false;
      if (c->fd < 0) continue;  // answered or dropped within its window
      outcomes_[c->partial_index].ok = true;
      Close(c);
    }
  }

  void Read(Conn* c) {
    char buf[65536];
    if (c->partial) {
      // A slowloris connection: any response byte fails it; the server
      // closing it without a word does not.
      const ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EAGAIN) return;
      outcomes_[c->partial_index].ok = n == 0 && c->watch_until >= 0;
      Close(c);
      return;
    }
    for (;;) {
      const ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EAGAIN) break;
      // EOF or error: whatever is still pending will never be answered.
      Parse(c);
      if (c->fd >= 0) Drop(c);
      return;
    }
    Parse(c);
  }

  void Parse(Conn* c) {
    std::size_t off = 0;
    bool server_closes = false;
    while (c->fd >= 0 && !server_closes) {
      const std::string_view in(c->in.data() + off, c->in.size() - off);
      const std::size_t head_end = in.find("\r\n\r\n");
      if (head_end == std::string_view::npos) break;
      const std::string_view head = in.substr(0, head_end);
      std::string_view value;
      std::size_t length = 0;
      if (HeaderHas(head, "content-length", &value)) {
        length = static_cast<std::size_t>(std::strtoull(
            std::string(value).c_str(), nullptr, 10));
      }
      if (in.size() < head_end + 4 + length) break;
      const int status = head.size() > 12 ? std::atoi(head.data() + 9) : 0;
      server_closes = HeaderHas(head, "connection", &value) &&
                      (value == "close" || value == "Close");
      const std::string_view body = in.substr(head_end + 4, length);
      if (!c->pending.empty()) {
        const std::uint32_t index = c->pending.front();
        c->pending.pop_front();
        Outcome& o = outcomes_[index];
        o.done_ns = Now();
        o.status = status;
        o.ok = ResponseOk(payloads_[schedule_.requests[index].payload], status,
                          body);
        if (spans_) {
          SpanLog::Add("client.request", epoch_ns_ + o.sent_ns,
                       epoch_ns_ + o.done_ns, span_base_ + index);
        }
      }
      off += head_end + 4 + length;
    }
    c->in.erase(0, off);
    if (server_closes) {
      Drop(c);
    } else if (c->no_more && c->pending.empty()) {
      Close(c);
    }
  }

  /// The connection ended: requests still pending on it fail.
  void Drop(Conn* c) {
    c->pending.clear();
    Close(c);
  }

  void Close(Conn* c) {
    if (c->fd < 0) return;
    epoll_ctl(ep_, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    c->fd = -1;
    --live_;
    if (c->lane != kOneShot && lane_conn_[c->lane] == c) {
      lane_conn_[c->lane] = nullptr;
    }
    ++closed_;
  }

  /// Frees closed connections once enough have piled up (never while an
  /// epoll batch or watching_ might still point at them).
  void Reap() {
    if (closed_ < 256) return;
    std::size_t keep = 0;
    for (auto& c : conns_) {
      if (c->fd >= 0 || c->watched) conns_[keep++] = std::move(c);
    }
    conns_.resize(keep);
    closed_ = 0;
  }

  const Schedule& schedule_;
  const std::vector<Payload>& payloads_;
  std::uint16_t port_;
  std::vector<Outcome>& outcomes_;
  std::int64_t epoch_ns_;
  bool spans_;
  std::uint64_t span_base_;
  std::vector<Conn*> lane_conn_;
  std::vector<std::uint32_t> mine_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::deque<Conn*> watching_;  ///< slowloris connections, by window end
  int ep_ = -1;
  std::size_t live_ = 0;
  std::size_t closed_ = 0;
  std::uint64_t opened_ = 0;
};

}  // namespace

bool ResponseOk(const Payload& payload, int status, std::string_view body) {
  if (payload.benign) {
    return status >= 200 && status < 300 && body == payload.expected_body;
  }
  return status >= 400 && status < 500;
}

PhaseResult RunPhase(const Schedule& schedule,
                     const std::vector<Payload>& payloads, std::uint16_t port,
                     std::size_t threads, bool spans, std::uint64_t span_base) {
  if (threads < 1) threads = 1;
  PhaseResult result;
  result.outcomes.assign(schedule.requests.size(), Outcome{});
  // A short runway so every thread is waiting before the first arrival.
  result.epoch_ns = MonoNs() + 20'000'000;
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.push_back(std::make_unique<Worker>(schedule, payloads, port,
                                               &result.outcomes,
                                               result.epoch_ns, spans,
                                               span_base));
  }
  std::size_t one_shots = 0;
  for (std::uint32_t i = 0; i < schedule.requests.size(); ++i) {
    const std::uint32_t lane = schedule.requests[i].lane;
    const std::size_t owner =
        lane == kOneShot ? one_shots++ % threads : lane % threads;
    workers[owner]->Assign(i);
  }
  std::vector<std::thread> running;
  for (auto& w : workers) running.emplace_back([&w] { w->Run(); });
  for (std::thread& t : running) t.join();
  for (const auto& w : workers) result.connections += w->connections();
  return result;
}

}  // namespace perfbench
