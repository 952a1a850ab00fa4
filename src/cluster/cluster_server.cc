#include "cluster/cluster_server.h"

#include <csignal>
#include <cstdio>
#include <signal.h>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "audit/audit_log.h"
#include "audit/audit_stream.h"
#include "gaa/services.h"
#include "gaa/system_state.h"
#include "ids/ids.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "util/shm_region.h"
#include "util/strings.h"

namespace gaa::cluster {

namespace {

std::atomic<bool> g_term_requested{false};

void OnTerm(int /*sig*/) { g_term_requested.store(true); }

const char* Env(const char* key) { return ::getenv(key); }

bool EnvU64(const char* key, std::uint64_t* out) {
  const char* v = Env(key);
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(v, &end, 10);
  return end != nullptr && *end == '\0';
}

[[noreturn]] void ChildDie(const char* what, const std::string& detail) {
  std::fprintf(stderr, "cluster child: %s: %s\n", what, detail.c_str());
  std::fflush(stderr);
  ::_exit(3);
}

/// Incrementally mirrors a MetricRegistry into this process's slab: new
/// registry entries get slab entries appended on first sight (the slab is
/// append-only per incarnation, so indices are stable), and every Publish
/// refreshes the live values.  Histograms flatten to `_count`/`_sum`
/// counter pairs — a fleet view needs totals, not bucket vectors.
class SlabPublisher {
 public:
  SlabPublisher(ClusterBus* bus, std::uint32_t slot,
                const telemetry::MetricRegistry* registry)
      : bus_(bus), slot_(slot), registry_(registry) {}

  void Publish() {
    const auto entries = registry_->List();
    for (std::size_t i = synced_; i < entries.size(); ++i) {
      Map(entries[i]);
    }
    synced_ = entries.size();
    for (const Mapped& m : mapped_) {
      switch (m.kind) {
        case telemetry::MetricKind::kCounter:
          bus_->SetSlabValue(slot_, m.entry,
                             static_cast<std::int64_t>(m.counter->Value()));
          break;
        case telemetry::MetricKind::kGauge:
          bus_->SetSlabValue(slot_, m.entry, m.gauge->Value());
          break;
        case telemetry::MetricKind::kHistogram: {
          const telemetry::Histogram::Snapshot s = m.histogram->TakeSnapshot();
          bus_->SetSlabValue(slot_, m.entry,
                             static_cast<std::int64_t>(s.count));
          if (m.sum_entry >= 0) {
            bus_->SetSlabValue(slot_, m.sum_entry,
                               static_cast<std::int64_t>(s.sum));
          }
          break;
        }
      }
    }
  }

 private:
  struct Mapped {
    telemetry::MetricKind kind = telemetry::MetricKind::kCounter;
    const telemetry::Counter* counter = nullptr;
    const telemetry::Gauge* gauge = nullptr;
    const telemetry::Histogram* histogram = nullptr;
    int entry = -1;
    int sum_entry = -1;  // histogram `_sum` companion
  };

  void Map(const telemetry::MetricRegistry::Entry& e) {
    Mapped m;
    m.kind = e.kind;
    switch (e.kind) {
      case telemetry::MetricKind::kCounter:
        m.counter = e.counter;
        m.entry = bus_->AddSlabEntry(slot_, e.name, e.labels,
                                     SlabKind::kCounter);
        break;
      case telemetry::MetricKind::kGauge:
        m.gauge = e.gauge;
        m.entry = bus_->AddSlabEntry(slot_, e.name, e.labels, SlabKind::kGauge);
        break;
      case telemetry::MetricKind::kHistogram:
        m.histogram = e.histogram;
        m.entry = bus_->AddSlabEntry(slot_, e.name + "_count", e.labels,
                                     SlabKind::kCounter);
        m.sum_entry = bus_->AddSlabEntry(slot_, e.name + "_sum", e.labels,
                                         SlabKind::kCounter);
        break;
    }
    if (m.entry >= 0) mapped_.push_back(m);
  }

  ClusterBus* bus_;
  std::uint32_t slot_;
  const telemetry::MetricRegistry* registry_;
  std::size_t synced_ = 0;
  std::vector<Mapped> mapped_;
};

// Slab name/label bytes come from another process's shared memory under a
// deliberately best-effort read protocol, so a torn or corrupted entry may
// carry arbitrary bytes.  Structured renderers must never splice them in
// raw: JSON gets the shared escaper, Prometheus rejects anything that could
// break line or brace structure.
std::string JsonEscaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  util::AppendJsonEscaped(text, &out);
  return out;
}

bool SafePrometheusName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  return true;
}

bool SafePrometheusLabels(std::string_view labels) {
  return labels.find_first_of("{}\n\r") == std::string_view::npos;
}

}  // namespace

bool TermRequested() { return g_term_requested.load(); }

void MaybeRunChildFromEnv(const ChildMain& child_main) {
  std::uint64_t slot = 0;
  if (!EnvU64("GAA_CLUSTER_SLOT", &slot)) return;  // not a cluster child

  ChildContext ctx;
  ctx.slot = static_cast<std::uint32_t>(slot);

  std::uint64_t nprocs = 0, generation = 0, shm_fd = 0, shm_bytes = 0;
  std::uint64_t port = 0, drain_ms = 0;
  if (!EnvU64("GAA_CLUSTER_NPROCS", &nprocs) ||
      !EnvU64("GAA_CLUSTER_GENERATION", &generation) ||
      !EnvU64("GAA_CLUSTER_SHM_FD", &shm_fd) ||
      !EnvU64("GAA_CLUSTER_SHM_BYTES", &shm_bytes) ||
      !EnvU64("GAA_CLUSTER_PORT", &port)) {
    ChildDie("incomplete environment", "missing GAA_CLUSTER_* variable");
  }
  ctx.nprocs = static_cast<std::uint32_t>(nprocs);
  ctx.generation = generation;
  ctx.port = static_cast<std::uint16_t>(port);
  if (EnvU64("GAA_CLUSTER_DRAIN_MS", &drain_ms)) {
    ctx.drain_deadline_ms = static_cast<int>(drain_ms);
  }
  if (const char* payload = Env("GAA_CLUSTER_PAYLOAD")) ctx.payload = payload;

  const char* fds = Env("GAA_CLUSTER_LISTEN_FDS");
  if (fds == nullptr || *fds == '\0') {
    ChildDie("incomplete environment", "GAA_CLUSTER_LISTEN_FDS unset");
  }
  for (const char* p = fds; *p != '\0';) {
    char* end = nullptr;
    const long fd = std::strtol(p, &end, 10);
    if (end == p || fd < 0) ChildDie("bad listener fd list", fds);
    ctx.listen_fds.push_back(static_cast<int>(fd));
    p = (*end == ',') ? end + 1 : end;
  }

  auto region = util::ShmRegion::AttachFd(static_cast<int>(shm_fd),
                                          static_cast<std::size_t>(shm_bytes));
  if (!region.ok()) ChildDie("shm attach failed", region.error().message);
  auto bus = ClusterBus::Attach(std::move(region).take(), ctx.generation);
  // The generation check is the stale-slab guard: a child re-exec'd into a
  // segment from a previous cluster run must refuse it, not serve from it.
  if (!bus.ok()) ChildDie("bus attach failed", bus.error().message);
  ctx.bus = std::move(bus).take();

  ::_exit(child_main(ctx));
}

std::string RenderClusterJson(const ClusterBus& bus, std::uint32_t self_slot) {
  const ClusterBus::ThreatView threat = bus.ReadThreat();
  std::string out = "{\"generation\":" + std::to_string(bus.generation());
  out += ",\"self\":" + std::to_string(self_slot);
  out += ",\"nprocs\":" + std::to_string(bus.nprocs());
  out += ",\"threat\":{\"level\":" + std::to_string(threat.level);
  out += ",\"origin\":" + std::to_string(threat.origin);
  out += ",\"serial\":" + std::to_string(threat.serial) + "}";

  // Fleet counters merged by metric name across every live slab.  Labels
  // are deliberately collapsed — this is the "how much work has the fleet
  // done" view; per-process detail lives in the Prometheus exposition.
  std::map<std::string, std::int64_t> fleet;
  out += ",\"processes\":[";
  bool first = true;
  for (const ClusterBus::ProcessView& p : bus.ViewProcesses()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"slot\":" + std::to_string(p.slot);
    out += std::string(",\"live\":") + (p.live ? "true" : "false");
    out += ",\"pid\":" + std::to_string(p.pid);
    out += ",\"incarnation\":" + std::to_string(p.incarnation);
    out += ",\"threat_level\":" + std::to_string(p.threat_level);
    out += ",\"heartbeat_us\":" + std::to_string(p.heartbeat_us) + "}";
    if (!p.live) continue;
    for (const ClusterBus::MetricSample& s : bus.ReadSlab(p.slot)) {
      if (s.kind == SlabKind::kCounter) fleet[s.name] += s.value;
    }
  }
  out += "],\"fleet\":{";
  first = true;
  for (const auto& [name, value] : fleet) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + JsonEscaped(name) + "\":" + std::to_string(value);
  }
  out += "}}";
  return out;
}

std::string RenderFleetPrometheus(const ClusterBus& bus,
                                  std::uint32_t self_slot) {
  std::string out;
  const auto procs = bus.ViewProcesses();
  out += "# TYPE gaa_cluster_process_up gauge\n";
  for (const ClusterBus::ProcessView& p : procs) {
    out += "gaa_cluster_process_up{process=\"" + std::to_string(p.slot) +
           "\"} " + (p.live ? "1" : "0") + "\n";
  }
  out += "# TYPE gaa_cluster_process_threat_level gauge\n";
  for (const ClusterBus::ProcessView& p : procs) {
    if (!p.live) continue;
    out += "gaa_cluster_process_threat_level{process=\"" +
           std::to_string(p.slot) + "\"} " + std::to_string(p.threat_level) +
           "\n";
  }
  const ClusterBus::ThreatView threat = bus.ReadThreat();
  out += "# TYPE gaa_cluster_threat_level gauge\n";
  out += "gaa_cluster_threat_level " + std::to_string(threat.level) + "\n";

  // Other live processes' slabs, each series tagged with its owner's slot.
  // Self is excluded: the local registry already rendered with this label,
  // at full fidelity (buckets, exact values) rather than slab granularity.
  for (const ClusterBus::ProcessView& p : procs) {
    if (!p.live || p.slot == self_slot) continue;
    const std::string tag = "process=\"" + std::to_string(p.slot) + "\"";
    for (const ClusterBus::MetricSample& s : bus.ReadSlab(p.slot)) {
      if (!SafePrometheusName(s.name) || !SafePrometheusLabels(s.labels)) {
        continue;  // corrupted slab bytes must not mangle the exposition
      }
      const std::string labels =
          s.labels.empty() ? tag : s.labels + "," + tag;
      out += s.name + "{" + labels + "} " + std::to_string(s.value) + "\n";
    }
  }
  return out;
}

int RunClusterChild(ChildContext& ctx, ClusterChildOptions options) {
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa = {};
  sa.sa_handler = OnTerm;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::uint32_t slot = ctx.slot;
  ClusterBus& bus = ctx.bus;

  // A cluster serves wall-clock traffic; the simulated clock is for
  // deterministic in-process tests only.
  options.web.use_real_clock = true;
  http::DocTree tree =
      options.make_tree ? options.make_tree() : http::DocTree::DemoSite();
  web::GaaWebServer web(std::move(tree), options.web);
  if (options.configure) options.configure(web);

  // Local alerts fan out to the fleet: ring for alert-level replication
  // (every peer recomputes the same score), threat cell for the coarse
  // authoritative level a lapped reader falls back to.
  web.ids().threat().set_bus_hook(
      [&bus, slot](double severity, core::ThreatLevel now) {
        bus.PushAlert(severity, static_cast<int>(slot));
        bus.PublishThreat(static_cast<int>(now), static_cast<int>(slot));
      });

  options.tcp.reactor_shards = ctx.listen_fds.size();
  options.tcp.inherited_listen_fds = ctx.listen_fds;
  options.tcp.drain_deadline_ms = ctx.drain_deadline_ms;
  options.tcp.port = ctx.port;
  if (options.tcp.tick_interval_ms <= 0) {
    options.tcp.tick_interval_ms = options.tick_interval_ms;
  }
  http::TcpServer tcp(&web.server(), options.tcp);

  // Replay whatever alert history is still in the ring so a respawned
  // process rebuilds the same ThreatService window as its peers instead of
  // starting cold at kLow.  The replay is deliberately *unfiltered*: a
  // respawned process inherits its predecessor's slot number, and the
  // predecessor's own alerts are exactly the history it must recover (no
  // local alert can exist yet, so nothing double-counts).
  std::uint64_t cursor = bus.AlertCursorReplay();
  bus.DrainAlerts(&cursor, [&web](const ClusterBus::Alert& alert) {
    web.ids().threat().ReportRemoteAlert(alert.severity);
  });
  // Ring history may predate what the ring still holds; the threat cell
  // carries the fleet's authoritative level for exactly this case.
  const ClusterBus::ThreatView fleet = bus.ReadThreat();
  if (fleet.level > static_cast<int>(web.ids().threat().level())) {
    web.ids().threat().ForceLevel(static_cast<core::ThreatLevel>(fleet.level));
  }
  SlabPublisher slab(&bus, slot, &web.telemetry().registry());

  tcp.set_tick_hook([&web, &bus, &slab, &cursor, slot](std::int64_t) {
    ids::ThreatService& threat = web.ids().threat();
    const bool lapped = bus.DrainAlerts(
        &cursor, [&threat, slot](const ClusterBus::Alert& alert) {
          if (alert.origin != static_cast<int>(slot)) {
            threat.ReportRemoteAlert(alert.severity);
          }
        });
    if (lapped) {
      // Lost individual alerts; adopt the fleet's published level when it
      // is above ours (never below — local evidence still decays locally).
      const ClusterBus::ThreatView view = bus.ReadThreat();
      if (view.level > static_cast<int>(threat.level())) {
        threat.ForceLevel(static_cast<core::ThreatLevel>(view.level));
      }
    }
    web.ids().PeriodicMaintenance();
    slab.Publish();
    bus.Heartbeat(slot, ClusterBus::MonotonicMicros(),
                  static_cast<int>(threat.level()));
  });

  tcp.set_drain_hook([&web, slot](std::uint64_t force_closed) {
    core::AuditEvent event;
    event.category = "cluster";
    event.message = "drain deadline force-closed " +
                    std::to_string(force_closed) +
                    " connections (process " + std::to_string(slot) + ")";
    web.audit_log().Record(event);
  });

  web.server().set_status_process(static_cast<int>(slot));
  web.server().set_cluster_view(
      [&bus, slot] { return RenderClusterJson(bus, slot); });
  web.server().set_status_prometheus_view([&web, &bus, slot] {
    return telemetry::RenderPrometheus(
               web.telemetry().registry(),
               "process=\"" + std::to_string(slot) + "\"") +
           RenderFleetPrometheus(bus, slot);
  });

  // Claim the slot before any slab entries exist: ClaimSlot resets the
  // slab, so it must precede the first tick's Publish, and marking live is
  // the readiness signal the supervisor's WaitSlotLive polls.  Note
  // WireIdsTick is NOT used here — the combined tick above already drives
  // PeriodicMaintenance along with the bus work.
  bus.ClaimSlot(slot, static_cast<int>(::getpid()));

  auto started = tcp.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cluster child %u: transport start failed: %s\n",
                 slot, started.error().message.c_str());
    bus.MarkExited(slot);
    return 2;
  }
  bus.Heartbeat(slot, ClusterBus::MonotonicMicros(),
                static_cast<int>(web.ids().threat().level()));

  while (!TermRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  tcp.Stop();  // drain in-flight requests, bounded by drain_deadline_ms
  // The facade's AsyncAuditWriter flushes on destruction, but the slot
  // must read "exited" before this process can be reaped, so mark first.
  bus.MarkExited(slot);
  return 0;
}

}  // namespace gaa::cluster
