#include "integration/gaa_web_server.h"

#include <cstdlib>

#include "audit/audit_stream.h"
#include "conditions/builtin.h"
#include "http/tcp_server.h"
#include "util/log.h"
#include "util/strings.h"

namespace gaa::web {

namespace {

/// Env override helpers: unset / unparsable leaves `value` untouched.
template <typename T>
void EnvOverrideUnsigned(const char* name, T* value) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end != nullptr && *end == '\0') *value = static_cast<T>(parsed);
}

void EnvOverride(const char* name, std::int64_t* value) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return;
  char* end = nullptr;
  long long parsed = std::strtoll(text, &end, 10);
  if (end != nullptr && *end == '\0') *value = parsed;
}

void EnvOverride(const char* name, std::string* value) {
  const char* text = std::getenv(name);
  if (text != nullptr) *value = text;
}

void EnvOverride(const char* name, bool* value) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return;
  *value = !(text[0] == '0' && text[1] == '\0');
}

}  // namespace

GaaWebServer::GaaWebServer(http::DocTree tree, Options options)
    : tree_(std::move(tree)), options_(std::move(options)) {
  // Deployment knobs (trace ring sizing, audit stream, watchdog deadline)
  // are overridable from the environment so ops can retune a packaged
  // binary without a rebuild.
  EnvOverrideUnsigned("GAA_TRACE_RING", &options_.tuning.trace_ring_capacity);
  EnvOverrideUnsigned("GAA_TRACE_SAMPLE_PERIOD",
                      &options_.tuning.trace_sample_period);
  EnvOverrideUnsigned("GAA_TRACE_PINNED", &options_.tuning.pinned_slow_traces);
  EnvOverride("GAA_AUDIT_STREAM", &options_.audit_stream.path);
  EnvOverrideUnsigned("GAA_AUDIT_ROTATE_BYTES",
                      &options_.audit_stream.rotate_bytes);
  EnvOverride("GAA_AUDIT_FSYNC", &options_.audit_stream.fsync_each_write);
  std::int64_t watchdog_deadline_ms =
      options_.watchdog.enabled ? options_.watchdog.deadline_ms : 0;
  EnvOverride("GAA_WATCHDOG_DEADLINE_MS", &watchdog_deadline_ms);
  options_.watchdog.enabled = watchdog_deadline_ms > 0;
  if (options_.watchdog.enabled) {
    options_.watchdog.deadline_ms = watchdog_deadline_ms;
  }

  if (options_.use_real_clock) {
    clock_ = &util::RealClock::Instance();
  } else {
    // Start the simulated clock at a daytime instant so time-of-day
    // conditions behave predictably (2003-05-19 12:00:00 UTC — ICDCS'03).
    sim_clock_ = std::make_unique<util::SimulatedClock>(
        1053345600LL * util::kMicrosPerSecond);
    clock_ = sim_clock_.get();
  }

  state_ = std::make_unique<core::SystemState>(clock_);
  ids_ = std::make_unique<ids::IntrusionDetectionSystem>(state_.get(), clock_,
                                                         options_.threat);
  audit_ = std::make_unique<audit::AuditLog>(clock_);
  // Threat-level transitions become structured "threat" audit events.
  ids_->AttachAudit(audit_.get());
  notifier_ = std::make_unique<audit::SimulatedSmtpNotifier>(
      clock_, options_.notification_latency_us);
  if (options_.asynchronous_notification) {
    queued_notifier_ = std::make_unique<audit::QueuedNotifier>(
        clock_, options_.notification_latency_us);
  }

  core::EvalServices services;
  services.state = state_.get();
  services.clock = clock_;
  services.notifier = options_.asynchronous_notification
                          ? static_cast<core::NotificationService*>(
                                queued_notifier_.get())
                          : notifier_.get();
  services.audit = audit_.get();
  services.ids = ids_.get();
  if (options_.enable_telemetry) {
    services.metrics = &telemetry_.registry();
    telemetry_.tracer().set_clock(clock_);
    telemetry_.tracer().set_capacity(options_.tuning.trace_ring_capacity);
    telemetry_.tracer().set_sample_period(options_.tuning.trace_sample_period);
    telemetry_.tracer().set_pinned_capacity(options_.tuning.pinned_slow_traces);
    ids_->AttachMetrics(&telemetry_.registry());
    audit_->AttachMetrics(&telemetry_.registry());
  }
  if (!options_.audit_stream.path.empty()) {
    audit::AuditLog::StreamOptions sopts;
    sopts.queue_capacity = options_.audit_stream.queue_capacity;
    sopts.rotate_bytes = options_.audit_stream.rotate_bytes;
    sopts.max_rotated_files = options_.audit_stream.max_rotated_files;
    sopts.fsync_each_write = options_.audit_stream.fsync_each_write;
    audit_->AttachFileStream(options_.audit_stream.path, sopts);
  }

  api_ = std::make_unique<core::GaaApi>(&store_, services);
  api_->set_engine_mode(options_.enable_compiled_engine
                            ? core::EngineMode::kCompiled
                            : core::EngineMode::kInterpreted);

  core::RoutineCatalog catalog;
  cond::RegisterBuiltinRoutines(catalog);
  auto init = api_->Initialize(catalog, cond::DefaultConfigText(),
                               options_.extra_config);
  if (!init.ok()) {
    GAA_LOG(kError) << "GAA initialization failed: " << init.error().ToString();
  }

  controller_ = std::make_unique<GaaAccessController>(api_.get(), &passwords_,
                                                      options_.controller);
  server_ = std::make_unique<http::WebServer>(&tree_, controller_.get(),
                                              clock_, options_.http);
  server_->set_tenant_router(&tenant_router_);
  server_->set_tenants_view([this] { return RenderTenantsJson(); });
  // One shared registry/tracer across transport, server, GAA, IDS and
  // audit — or none at all (the telemetry-off baseline benches measure).
  server_->set_telemetry(options_.enable_telemetry ? &telemetry_ : nullptr);
  // Ill-formed requests feed the IDS (§3 item 1).
  server_->set_malformed_hook([this](http::RequestDefect defect,
                                     const std::string& detail,
                                     util::Ipv4Address client_ip) {
    core::IdsReport report;
    report.kind = core::ReportKind::kIllFormedRequest;
    report.source_ip = client_ip.ToString();
    report.attack_type = http::RequestDefectName(defect);
    report.severity = 3;
    report.confidence = 0.8;
    report.detail = detail;
    ids_->Report(report);
  });
  // Every served request feeds the streaming anomaly sketches (DESIGN.md
  // §12) — worker path, inline pipeline and template fast path alike.
  server_->set_request_observer([this](std::string_view /*method*/,
                                       std::string_view target,
                                       util::Ipv4Address client_ip,
                                       int /*status*/) {
    ids_->ObserveRequest(client_ip.ToString(), std::string(target),
                         clock_->Now());
  });

  if (options_.watchdog.enabled && options_.enable_telemetry) {
    // Flag time (watchdog thread): the request is still running, so only
    // its id and age are safely known — audit that immediately.
    auto on_flag = [this](const telemetry::SlowRequestWatchdog::SlowEvent& ev) {
      core::AuditEvent event;
      event.category = "slow_request";
      event.message = "request exceeded deadline after " +
                      std::to_string(ev.elapsed_us) + "us (still running)";
      event.trace_id = ev.trace_id;
      audit_->Record(event);
      if (options_.watchdog.report_to_ids) {
        core::IdsReport report;
        report.kind = core::ReportKind::kSuspiciousBehavior;
        report.attack_type = "slow_request";
        report.severity = 2;
        report.confidence = 0.3;
        report.detail = "trace " + std::to_string(ev.trace_id) + " ran " +
                        std::to_string(ev.elapsed_us) + "us past deadline";
        ids_->Report(report);
      }
    };
    // Retirement (request thread): the span tree is complete — audit where
    // the time actually went.
    telemetry_.tracer().set_slow_retired_hook(
        [this](const telemetry::RequestTrace& trace) {
          const telemetry::Span* slowest = nullptr;
          for (const telemetry::Span& span : trace.spans()) {
            if (span.depth != 0 || span.end_us == 0) continue;
            if (slowest == nullptr ||
                span.DurationUs() > slowest->DurationUs()) {
              slowest = &span;
            }
          }
          core::AuditEvent event;
          event.category = "slow_request";
          event.message =
              trace.method + " " + trace.target + " took " +
              std::to_string(trace.DurationUs()) + "us (status " +
              std::to_string(trace.status) + ")";
          if (slowest != nullptr) {
            event.message += ", slowest phase " + std::string(slowest->name) +
                             " " + std::to_string(slowest->DurationUs()) + "us";
          }
          event.trace_id = trace.id();
          event.client = trace.client_ip;
          audit_->Record(event);
        });
    telemetry::SlowRequestWatchdog::Options wopts;
    wopts.deadline_us = options_.watchdog.deadline_ms * 1000;
    wopts.poll_interval_us = options_.watchdog.poll_interval_ms * 1000;
    watchdog_ = std::make_unique<telemetry::SlowRequestWatchdog>(
        &telemetry_.tracer(), &telemetry_.registry(), wopts,
        std::move(on_flag));
  }
}

util::VoidResult GaaWebServer::AddSystemPolicy(const std::string& eacl_text) {
  return store_.AddSystemPolicy(eacl_text);
}

util::VoidResult GaaWebServer::AddTenant(const std::string& name,
                                         const std::string& host,
                                         const std::string& doc_root) {
  util::VoidResult result = store_.AddTenant(name);
  if (!result.ok()) return result;
  if (!host.empty()) tenant_router_.AddHost(host, name, doc_root);
  return result;
}

util::VoidResult GaaWebServer::AddTenantSystemPolicy(
    const std::string& tenant, const std::string& eacl_text) {
  return store_.AddTenantSystemPolicy(tenant, eacl_text);
}

util::VoidResult GaaWebServer::SetTenantLocalPolicy(
    const std::string& tenant, const std::string& dir_prefix,
    const std::string& eacl_text) {
  return store_.SetTenantLocalPolicy(tenant, dir_prefix, eacl_text);
}

std::string GaaWebServer::RenderTenantsJson() const {
  const eacl::IrStore::Stats ir = store_.ir_store_stats();
  std::string out = "{\"tenants\":[";
  bool first = true;
  for (const core::PolicyStore::TenantInfo& info : store_.TenantInfos()) {
    if (!first) out.push_back(',');
    first = false;
    // Tenant names come from configuration, but escape anyway — this
    // string goes on the wire as application/json.
    out += "{\"name\":\"";
    util::AppendJsonEscaped(info.name, &out);
    out.push_back('"');
    out += ",\"snapshot_version\":" + std::to_string(info.snapshot_version);
    out += ",\"system_policies\":" + std::to_string(info.system_policies);
    out += ",\"local_policies\":" + std::to_string(info.local_policies);
    out.push_back('}');
  }
  out += "],\"routes\":" + std::to_string(tenant_router_.route_count());
  out += ",\"ir_store\":{";
  out += "\"hits\":" + std::to_string(ir.hits);
  out += ",\"misses\":" + std::to_string(ir.misses);
  out += ",\"entries\":" + std::to_string(ir.entries);
  out += ",\"bytes\":" + std::to_string(ir.bytes);
  out += ",\"sweeps\":" + std::to_string(ir.sweeps);
  out += "}}";
  return out;
}

util::VoidResult GaaWebServer::SetLocalPolicy(const std::string& dir_prefix,
                                              const std::string& eacl_text) {
  return store_.SetLocalPolicy(dir_prefix, eacl_text);
}

void GaaWebServer::AddUser(const std::string& user,
                           const std::string& password) {
  passwords_.GetOrCreate(options_.controller.auth_user_file)
      .SetUser(user, password);
}

http::HttpResponse GaaWebServer::Get(
    const std::string& target, const std::string& client_ip,
    const std::optional<std::pair<std::string, std::string>>& credentials) {
  std::map<std::string, std::string> headers;
  if (credentials.has_value()) {
    headers["Authorization"] =
        "Basic " +
        util::Base64Encode(credentials->first + ":" + credentials->second);
  }
  std::string raw = http::BuildGetRequest(target, headers);
  return HandleText(raw, client_ip);
}

http::HttpResponse GaaWebServer::HandleText(const std::string& raw,
                                            const std::string& client_ip) {
  auto addr = util::Ipv4Address::Parse(client_ip);
  return server_->HandleText(raw, addr.value_or(util::Ipv4Address(0)),
                             /*client_port=*/40000);
}

void GaaWebServer::WireIdsTick(http::TcpServer* transport) {
  if (transport == nullptr) return;
  // The wheel tick arrives on shard 0's event-loop thread; everything
  // PeriodicMaintenance touches (threat service, sketches, SystemState
  // variables) is thread-safe, so no cross-thread relay is needed.
  transport->set_tick_hook(
      [this](std::int64_t /*now_ms*/) { ids_->PeriodicMaintenance(); });
}

}  // namespace gaa::web
