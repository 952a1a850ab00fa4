// GaaWebServer: the one-stop facade wiring every subsystem together —
// clock, shared system state, IDS, audit log, notification service, policy
// store, GAA-API, document tree, credential stores and the web server with
// the GAA-backed access controller.  Examples, scenario tests and the
// benchmark harness all build on this.
//
//   GaaWebServer server(http::DocTree::DemoSite(), options);
//   server.AddUser("alice", "wonder");
//   server.AddSystemPolicy(...);            // eacl_mode narrow ...
//   server.SetLocalPolicy("/", ...);        // per-directory EACLs
//   auto response = server.Get("/index.html", "10.1.2.3");
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "audit/audit_log.h"
#include "audit/notification.h"
#include "gaa/api.h"
#include "gaa/policy_store.h"
#include "gaa/system_state.h"
#include "http/doc_tree.h"
#include "http/server.h"
#include "ids/ids.h"
#include "integration/gaa_controller.h"
#include "telemetry/telemetry.h"
#include "telemetry/watchdog.h"
#include "util/clock.h"

namespace gaa::http {
class TcpServer;
}  // namespace gaa::http

namespace gaa::web {

class GaaWebServer {
 public:
  struct Options {
    /// false: deterministic SimulatedClock (tests); true: wall clock
    /// (benchmarks measuring real latency).
    bool use_real_clock = false;
    /// Per-notification blocking latency of the simulated SMTP hand-off.
    util::DurationUs notification_latency_us = 47'000;
    /// Deliver notifications from a background thread instead of blocking
    /// the request path (ablation of the paper's synchronous-notification
    /// cost — the 80 % overhead of §8 is an artifact of blocking delivery).
    bool asynchronous_notification = false;
    /// Compiled policy engine (DESIGN.md §9): evaluate the immutable IR
    /// published by the policy store (and memoize its pure terminal
    /// decisions) instead of interpreting the AST.
    bool enable_compiled_engine = true;
    /// Forwarded to the GAA access controller.
    GaaAccessController::Options controller;
    /// Escalation thresholds for the embedded IDS threat service.  Raise
    /// the scores to effectively pin the threat level (the paper's §8
    /// measurement ran against a static threat profile).
    ids::ThreatService::Options threat;
    /// Extra GAA configuration appended to the builtin default bindings.
    std::string extra_config;
    /// Wire the shared telemetry bundle through every component (metrics
    /// registry + request tracing + /__status).  Off = the bench baseline:
    /// the web server runs with telemetry detached entirely.
    bool enable_telemetry = true;

    /// Tracer sizing knobs.  Environment overrides (applied on top of
    /// whatever the config sets): GAA_TRACE_RING, GAA_TRACE_SAMPLE_PERIOD,
    /// GAA_TRACE_PINNED.
    struct TelemetryTuning {
      std::size_t trace_ring_capacity = telemetry::Tracer::kDefaultCapacity;
      std::uint64_t trace_sample_period = 1;  ///< trace 1-in-N (0 disables)
      std::size_t pinned_slow_traces =
          telemetry::Tracer::kDefaultPinnedCapacity;
    };
    TelemetryTuning tuning;

    /// Structured JSONL audit stream (async file mirror of the audit log).
    /// Environment overrides: GAA_AUDIT_STREAM (path; enables),
    /// GAA_AUDIT_ROTATE_BYTES, GAA_AUDIT_FSYNC (0/1).
    struct AuditStreamOptions {
      std::string path;  ///< "" = no stream
      std::size_t queue_capacity = 4096;
      std::size_t rotate_bytes = 8 * 1024 * 1024;
      int max_rotated_files = 3;
      bool fsync_each_write = false;
    };
    AuditStreamOptions audit_stream;

    /// Slow-request watchdog.  Environment override:
    /// GAA_WATCHDOG_DEADLINE_MS (> 0 enables, 0 disables).
    struct WatchdogOptions {
      bool enabled = false;
      std::int64_t deadline_ms = 1000;
      std::int64_t poll_interval_ms = 100;
      /// Also report flagged requests to the IDS as suspicious behaviour
      /// (§3 item 6: resource-exhaustion shows up as slow requests).
      bool report_to_ids = true;
    };
    WatchdogOptions watchdog;

    /// Forwarded verbatim to the embedded http::WebServer (parse limits,
    /// access-log ring size, static content plane on/off, ...).
    http::WebServer::Options http;
  };

  explicit GaaWebServer(http::DocTree tree) : GaaWebServer(std::move(tree), Options{}) {}
  GaaWebServer(http::DocTree tree, Options options);

  GaaWebServer(const GaaWebServer&) = delete;
  GaaWebServer& operator=(const GaaWebServer&) = delete;

  // --- policy management -----------------------------------------------------
  util::VoidResult AddSystemPolicy(const std::string& eacl_text);
  util::VoidResult SetLocalPolicy(const std::string& dir_prefix,
                                  const std::string& eacl_text);

  // --- tenants (DESIGN.md §14) -------------------------------------------------
  /// Create tenant `name`'s policy namespace (idempotent) and, when `host`
  /// is non-empty, route that Host header (normalized) to it.  `doc_root`
  /// places the tenant's documents under a subtree of the shared DocTree.
  /// Host routes must be registered before serving starts — the router is
  /// immutable once requests flow.
  util::VoidResult AddTenant(const std::string& name,
                             const std::string& host = {},
                             const std::string& doc_root = {});
  util::VoidResult AddTenantSystemPolicy(const std::string& tenant,
                                         const std::string& eacl_text);
  util::VoidResult SetTenantLocalPolicy(const std::string& tenant,
                                        const std::string& dir_prefix,
                                        const std::string& eacl_text);
  /// What to do with a Host no tenant claims (default: the "" namespace).
  void set_unknown_host_policy(http::TenantRouter::UnknownHostPolicy policy) {
    tenant_router_.set_unknown_host_policy(policy);
  }
  http::TenantRouter& tenant_router() { return tenant_router_; }

  /// The "<status_path>/tenants" JSON: per-tenant snapshot versions and
  /// policy counts plus the shared IR store's dedup statistics.
  std::string RenderTenantsJson() const;

  // --- credentials -------------------------------------------------------------
  void AddUser(const std::string& user, const std::string& password);

  // --- request entry points ----------------------------------------------------
  /// GET `target` from `client_ip`, optionally with Basic credentials.
  http::HttpResponse Get(
      const std::string& target, const std::string& client_ip,
      const std::optional<std::pair<std::string, std::string>>& credentials =
          std::nullopt);

  /// Raw request text (exercises the parser / ill-formed reporting path).
  http::HttpResponse HandleText(const std::string& raw,
                                const std::string& client_ip);

  /// Drive periodic IDS maintenance (threat decay under idle traffic,
  /// sketch window aging, adaptive-threshold refresh) from the transport's
  /// shard timer wheel.  Call before `transport->Start()`; the transport's
  /// Options::tick_interval_ms must be non-zero for ticks to fire.
  void WireIdsTick(http::TcpServer* transport);

  // --- component access ---------------------------------------------------------
  util::Clock& clock() { return *clock_; }
  util::SimulatedClock* sim_clock() { return sim_clock_.get(); }
  core::SystemState& state() { return *state_; }
  ids::IntrusionDetectionSystem& ids() { return *ids_; }
  audit::AuditLog& audit_log() { return *audit_; }
  audit::SimulatedSmtpNotifier& notifier() { return *notifier_; }
  /// Non-null only when Options::asynchronous_notification is set.
  audit::QueuedNotifier* queued_notifier() { return queued_notifier_.get(); }
  core::PolicyStore& policy_store() { return store_; }
  core::GaaApi& api() { return *api_; }
  http::WebServer& server() { return *server_; }
  http::DocTree& tree() { return tree_; }
  http::HtpasswdRegistry& passwords() { return passwords_; }
  GaaAccessController& controller() { return *controller_; }
  /// The shared telemetry bundle (all components report here); valid even
  /// when Options::enable_telemetry is false, just disconnected.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  /// Non-null only when Options::watchdog.enabled (or the env override).
  telemetry::SlowRequestWatchdog* watchdog() { return watchdog_.get(); }

 private:
  /// Declared before every component so it outlives all metric handles.
  telemetry::Telemetry telemetry_;
  http::DocTree tree_;
  Options options_;
  std::unique_ptr<util::SimulatedClock> sim_clock_;  // null when real clock
  util::Clock* clock_;
  std::unique_ptr<core::SystemState> state_;
  std::unique_ptr<ids::IntrusionDetectionSystem> ids_;
  std::unique_ptr<audit::AuditLog> audit_;
  std::unique_ptr<audit::SimulatedSmtpNotifier> notifier_;
  std::unique_ptr<audit::QueuedNotifier> queued_notifier_;
  core::PolicyStore store_;
  std::unique_ptr<core::GaaApi> api_;
  http::HtpasswdRegistry passwords_;
  std::unique_ptr<GaaAccessController> controller_;
  /// Host → tenant routes; wired into server_ and shared with the
  /// transport's fast-path tiers.  Configure before serving starts.
  http::TenantRouter tenant_router_;
  std::unique_ptr<http::WebServer> server_;
  /// Last member: the watchdog thread dies before anything it observes.
  std::unique_ptr<telemetry::SlowRequestWatchdog> watchdog_;
};

}  // namespace gaa::web
