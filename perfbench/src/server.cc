#include "server.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "http/tcp_server.h"
#include "integration/gaa_web_server.h"
#include "spans.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace {

namespace core = gaa::core;
namespace http = gaa::http;

/// E7's signature and CGI-input-length policy (bench/bench_load.cc), without
/// blacklisting, so an attack never locks a benign client out.
const char* kSignaturePolicy = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *%* *///////////////////* *cmd.exe*
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
pos_access_right apache *
)";

/// A system-wide deny list of /24 host screens, then a grant.  Every
/// condition is pure, so decisions memoize.  No benchmark address (127/8)
/// is listed.
std::string DenyListPolicy() {
  std::string text = "eacl_mode 1\n";
  for (int i = 0; i < kDenyListEntries; ++i) {
    text += "neg_access_right * *\npre_cond_accessid HOST local 10." +
            std::to_string(i / 250) + "." + std::to_string(i % 250) +
            ".0/24\n";
  }
  text += "pos_access_right * *\n";
  return text;
}

// --- traced seams ---------------------------------------------------------

/// Request id of the request this thread is serving.  A controller Check()
/// starts a new one; the request observer and the later phase callbacks on
/// the same thread reuse it when the client address matches.
struct ThreadRequest {
  std::uint64_t id = 0;
  std::uint32_t client = 0;
};
std::atomic<std::uint64_t> g_next_request{1};
thread_local ThreadRequest t_request;

std::uint64_t NewRequest(std::uint32_t client) {
  t_request.id = (1ULL << 63) | g_next_request.fetch_add(1);
  t_request.client = client;
  return t_request.id;
}

std::uint64_t SameRequest(std::uint32_t client) {
  if (t_request.id != 0 && t_request.client == client) return t_request.id;
  return NewRequest(client);
}

class TracedController final : public http::AccessController {
 public:
  explicit TracedController(http::AccessController* inner) : inner_(inner) {}

  Verdict Check(http::RequestRec& rec) override {
    ScopedSpan span("gaa.check", NewRequest(rec.client_ip.bits()));
    return inner_->Check(rec);
  }
  bool OnExecution(http::RequestRec& rec,
                   const http::OperationObservation& obs) override {
    ScopedSpan span("gaa.on_execution", SameRequest(rec.client_ip.bits()));
    return inner_->OnExecution(rec, obs);
  }
  void OnComplete(http::RequestRec& rec, const http::OperationObservation& obs,
                  bool success) override {
    ScopedSpan span("gaa.on_complete", SameRequest(rec.client_ip.bits()));
    inner_->OnComplete(rec, obs, success);
  }
  bool DecisionIsMemoized(std::string_view path, std::string_view method,
                          gaa::util::Ipv4Address client_ip,
                          std::string_view tenant) const override {
    return inner_->DecisionIsMemoized(path, method, client_ip, tenant);
  }
  bool AllowsUnchecked() const override { return inner_->AllowsUnchecked(); }

 private:
  http::AccessController* inner_;
};

class TracedIds final : public core::IdsChannel {
 public:
  explicit TracedIds(core::IdsChannel* inner) : inner_(inner) {}
  void Report(const core::IdsReport& report) override {
    ScopedSpan span("ids.report", SpanLog::CurrentRequest());
    inner_->Report(report);
  }
  bool SuspectedSpoofing(const std::string& source_ip) override {
    ScopedSpan span("ids.spoofing", SpanLog::CurrentRequest());
    return inner_->SuspectedSpoofing(source_ip);
  }

 private:
  core::IdsChannel* inner_;
};

class TracedAudit final : public core::AuditSink {
 public:
  explicit TracedAudit(core::AuditSink* inner) : inner_(inner) {}
  void Record(const std::string& category, const std::string& message) override {
    ScopedSpan span("audit.record", SpanLog::CurrentRequest());
    inner_->Record(category, message);
  }
  void Record(const std::string& category, const std::string& message,
              std::uint64_t trace_id) override {
    ScopedSpan span("audit.record", SpanLog::CurrentRequest());
    inner_->Record(category, message, trace_id);
  }
  void Record(const core::AuditEvent& event) override {
    ScopedSpan span("audit.record", SpanLog::CurrentRequest());
    inner_->Record(event);
  }

 private:
  core::AuditSink* inner_;
};

// --- stats ------------------------------------------------------------------

/// Sums every labelled series of one histogram family (same bounds).
gaa::telemetry::Histogram::Snapshot MergedHistogram(
    gaa::telemetry::MetricRegistry& registry, const std::string& name) {
  gaa::telemetry::Histogram::Snapshot merged;
  for (const auto& entry : registry.List()) {
    if (entry.name != name || entry.histogram == nullptr) continue;
    auto snap = entry.histogram->TakeSnapshot();
    if (merged.counts.empty()) {
      merged = std::move(snap);
      continue;
    }
    if (snap.counts.size() != merged.counts.size()) continue;
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      merged.counts[i] += snap.counts[i];
    }
    merged.count += snap.count;
    merged.sum += snap.sum;
    merged.max = std::max(merged.max, snap.max);
  }
  return merged;
}

double CounterSum(gaa::telemetry::MetricRegistry& registry,
                  const std::string& name) {
  double total = 0;
  for (const auto& entry : registry.List()) {
    if (entry.name == name && entry.counter != nullptr) {
      total += static_cast<double>(entry.counter->Value());
    }
  }
  return total;
}

std::string RenderStats(gaa::telemetry::MetricRegistry& registry,
                        const http::TcpServer::Stats& now,
                        const http::TcpServer::Stats& base) {
  std::ostringstream out;
  out.precision(10);
  auto put = [&out](const char* key, double value) {
    out << key << ' ' << value << '\n';
  };
  put("transport.requests", static_cast<double>(now.requests - base.requests));
  put("transport.inline_served",
      static_cast<double>(now.inline_served - base.inline_served));
  put("transport.accepted", static_cast<double>(now.accepted - base.accepted));
  put("transport.rejected", static_cast<double>(now.rejected - base.rejected));
  put("transport.ring_hwm", static_cast<double>(now.ring_high_watermark));
  const auto dispatch = MergedHistogram(registry, "transport_dispatch_delay_us");
  put("transport.dispatch_delay_p90_us",
      dispatch.count > 0 ? dispatch.Quantile(0.90) : 0);
  const auto pipeline = MergedHistogram(registry, "http_request_latency_us");
  put("http.pipeline_p50_us", pipeline.count > 0 ? pipeline.Quantile(0.5) : 0);
  put("http.pipeline_p90_us", pipeline.count > 0 ? pipeline.Quantile(0.9) : 0);
  put("gaa.memo_hits", CounterSum(registry, "gaa_decision_cache_hits_total"));
  put("gaa.memo_misses",
      CounterSum(registry, "gaa_decision_cache_misses_total"));
  const auto cond = MergedHistogram(registry, "gaa_cond_eval_us");
  put("gaa.cond_eval_p90_us", cond.count > 0 ? cond.Quantile(0.9) : 0);
  put("ids.report_count", CounterSum(registry, "ids_reports_total"));
  put("ids.stream_flagged", CounterSum(registry, "ids_stream_flagged_total"));
  put("ids.threat_transitions",
      CounterSum(registry, "ids_threat_transitions_total"));
  put("audit.records", CounterSum(registry, "audit_records_total"));
  put("audit.dropped", CounterSum(registry, "audit_stream_dropped_total"));
  return out.str();
}

// --- child ------------------------------------------------------------------

bool WriteAll(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (without it); false on EOF or timeout.
bool ReadLine(int fd, std::string* line, int timeout_ms) {
  line->clear();
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (timeout_ms >= 0 && poll(&p, 1, timeout_ms) <= 0) return false;
    char c = 0;
    if (read(fd, &c, 1) != 1) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

int ServeChild(const ServerConfig& config, int reply_fd, int cmd_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) return 1;

  gaa::web::GaaWebServer::Options options;
  options.use_real_clock = true;
  options.tuning.trace_sample_period = 0;
  options.audit_stream.path = config.audit_path;
  gaa::web::GaaWebServer gws(http::DocTree::DemoSite(), options);
  gws.AddUser("alice", "wonder");
  bool policy_ok = true;
  if (config.workload == Workload::kStaticGet) {
    policy_ok = gws.AddSystemPolicy(DenyListPolicy()).ok() &&
                gws.SetLocalPolicy("/", "pos_access_right apache *\n").ok();
  } else {
    policy_ok = gws.SetLocalPolicy("/", kSignaturePolicy).ok();
  }
  if (!policy_ok) {
    WriteAll(reply_fd, "error policy\n");
    return 1;
  }

  // Traced seams: the same components, reached through their public
  // interfaces, with a span around every call.
  std::unique_ptr<TracedController> traced_controller;
  std::unique_ptr<TracedIds> traced_ids;
  std::unique_ptr<TracedAudit> traced_audit;
  std::unique_ptr<http::WebServer> traced_server;
  http::WebServer* front = &gws.server();
  if (config.traced) {
    SpanLog::Enable(true);
    traced_controller = std::make_unique<TracedController>(&gws.controller());
    traced_ids = std::make_unique<TracedIds>(&gws.ids());
    traced_audit = std::make_unique<TracedAudit>(&gws.audit_log());
    gws.api().services().ids = traced_ids.get();
    gws.api().services().audit = traced_audit.get();
    traced_server = std::make_unique<http::WebServer>(
        &gws.tree(), traced_controller.get(), &gws.clock());
    traced_server->set_tenant_router(&gws.tenant_router());
    traced_server->set_telemetry(&gws.telemetry());
    gaa::web::GaaWebServer* g = &gws;
    TracedIds* ids = traced_ids.get();
    traced_server->set_malformed_hook(
        [ids](http::RequestDefect defect, const std::string& detail,
              gaa::util::Ipv4Address client_ip) {
          ScopedSpan span("http.malformed", NewRequest(client_ip.bits()));
          core::IdsReport report;
          report.kind = core::ReportKind::kIllFormedRequest;
          report.source_ip = client_ip.ToString();
          report.attack_type = http::RequestDefectName(defect);
          report.severity = 3;
          report.confidence = 0.8;
          report.detail = detail;
          ids->Report(report);
        });
    traced_server->set_request_observer(
        [g](std::string_view, std::string_view target,
            gaa::util::Ipv4Address client_ip, int) {
          ScopedSpan span("ids.observe", SameRequest(client_ip.bits()));
          g->ids().ObserveRequest(client_ip.ToString(), std::string(target),
                                  g->clock().Now());
        });
    front = traced_server.get();
  }

  http::TcpServer::Options tcp_options;
  tcp_options.reactor_shards = config.shards;
  tcp_options.worker_threads = config.workers;
  tcp_options.backlog = 4096;
  tcp_options.max_connections = 4096;
  tcp_options.tick_interval_ms = 100;
  http::TcpServer tcp(front, tcp_options);
  gws.WireIdsTick(&tcp);
  auto started = tcp.Start();
  if (!started.ok()) {
    WriteAll(reply_fd, "error start\n");
    return 1;
  }
  WriteAll(reply_fd, "ready " + std::to_string(tcp.port()) + "\n");

  http::TcpServer::Stats base = tcp.stats();
  std::string command;
  while (ReadLine(cmd_fd, &command, -1)) {
    if (command == "reset") {
      gws.telemetry().registry().ResetAll();
      base = tcp.stats();
      WriteAll(reply_fd, "ok\n");
    } else if (command == "stats") {
      WriteAll(reply_fd,
               RenderStats(gws.telemetry().registry(), tcp.stats(), base) +
                   "end\n");
    } else if (command == "probe_layers") {
      // Direct calls through the traced IDS channel and audit sink, for
      // layers the workload itself never reaches.
      for (int i = 0; traced_ids != nullptr && i < kLayerProbeCalls; ++i) {
        ScopedSpan root("layer.probe", NewRequest(0));
        core::IdsReport report;
        report.kind = core::ReportKind::kIllFormedRequest;
        report.source_ip = "127.66.6.250";
        report.attack_type = "layer_probe";
        report.severity = 1;
        report.confidence = 0.1;
        traced_ids->Report(report);
        core::AuditEvent event;
        event.category = "layer_probe";
        event.message = "layer probe " + std::to_string(i);
        traced_audit->Record(event);
      }
      WriteAll(reply_fd, "ok\n");
    } else {
      break;  // "quit"
    }
  }
  tcp.Stop();
  gws.audit_log().Flush();
  if (config.traced && !config.spans_path.empty()) {
    WriteSpans(config.spans_path, SpanLog::Snapshot());
  }
  WriteAll(reply_fd, "bye\n");
  return 0;
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (cmd_fd_ >= 0) close(cmd_fd_);
  if (reply_fd_ >= 0) close(reply_fd_);
}

bool ServerProcess::Start(const ServerConfig& config, std::string* error) {
  int reply[2];
  int cmd[2];
  if (pipe2(reply, O_CLOEXEC) != 0) return false;
  if (pipe2(cmd, O_CLOEXEC) != 0) {
    close(reply[0]);
    close(reply[1]);
    return false;
  }
  std::fflush(nullptr);
  const std::int64_t t0 = MonoNs();
  const pid_t pid = fork();
  if (pid == 0) {
    close(reply[0]);
    close(cmd[1]);
    const int rc = ServeChild(config, reply[1], cmd[0]);
    std::fflush(nullptr);
    _exit(rc);
  }
  close(reply[1]);
  close(cmd[0]);
  if (pid < 0) {
    close(reply[0]);
    close(cmd[1]);
    *error = "fork failed";
    return false;
  }
  pid_ = pid;
  reply_fd_ = reply[0];
  cmd_fd_ = cmd[1];
  std::string line;
  if (!ReadLine(reply_fd_, &line, 60000) || line.rfind("ready ", 0) != 0) {
    *error = "server did not start: " + line;
    return false;
  }
  setup_s_ = static_cast<double>(MonoNs() - t0) / 1e9;
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + 6));
  return true;
}

bool ServerProcess::Command(const std::string& command, std::string* reply) {
  if (!WriteAll(cmd_fd_, command + "\n")) return false;
  reply->clear();
  std::string line;
  while (ReadLine(reply_fd_, &line, 30000)) {
    if (line == "ok" || line == "end") return true;
    *reply += line + "\n";
  }
  return false;
}

bool ServerProcess::ResetCounters() {
  std::string reply;
  return Command("reset", &reply);
}

bool ServerProcess::ProbeLayers() {
  std::string reply;
  return Command("probe_layers", &reply);
}

std::map<std::string, double> ServerProcess::Stats() {
  std::map<std::string, double> out;
  std::string reply;
  if (!Command("stats", &reply)) return out;
  std::istringstream lines(reply);
  std::string key;
  double value = 0;
  while (lines >> key >> value) out[key] = value;
  return out;
}

std::int64_t ServerProcess::CpuNs() const {
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  std::int64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    long long ns = 0;
    if (in >> ns) total += ns;
  }
  closedir(d);
  return total;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  WriteAll(cmd_fd_, "quit\n");
  std::string line;
  const bool said_bye = ReadLine(reply_fd_, &line, 30000) && line == "bye";
  if (!said_bye) kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  close(cmd_fd_);
  close(reply_fd_);
  cmd_fd_ = reply_fd_ = -1;
  return said_bye && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
