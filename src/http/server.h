// The web server core ("apache-sim").
//
// A deliberately Apache-shaped request pipeline:
//
//   parse  →  access check (pluggable AccessController)  →  handler
//   (static file or CGI)  →  execution control callback  →  completion
//   callback  →  access/error logging
//
// The paper integrates the GAA-API "by modifying the check_access function";
// here the same seam is the AccessController interface.  The baseline
// HtaccessController reproduces stock Apache behaviour (§4); the
// integration module provides the GAA-backed controller (§5-6).
//
// The server is transport-agnostic: HandleText()/Handle() process one
// request synchronously and deterministically, which is what the tests and
// benchmarks need.  Concurrency is the caller's choice (the workload driver
// runs several threads over one server).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "http/doc_tree.h"
#include "http/htaccess.h"
#include "http/htpasswd.h"
#include "http/request.h"
#include "http/response.h"
#include "http/static_plane.h"
#include "http/tenant_router.h"
#include "telemetry/telemetry.h"
#include "util/clock.h"

namespace gaa::http {

/// What the operation did — handed to the execution-control and completion
/// callbacks (http-local mirror of the GAA OperationStats; the integration
/// layer adapts).
struct OperationObservation {
  double cpu_seconds = 0.0;
  std::uint64_t wall_us = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t memory_bytes = 0;
  std::vector<std::string> files_touched;
};

/// The pluggable access-control seam.
class AccessController {
 public:
  virtual ~AccessController() = default;

  struct Verdict {
    bool respond = false;   ///< true: short-circuit with `response`
    HttpResponse response;  ///< used when respond is true

    static Verdict Allow() { return Verdict{}; }
    static Verdict Respond(HttpResponse r) {
      Verdict v;
      v.respond = true;
      v.response = std::move(r);
      return v;
    }
  };

  /// Phase 2: decide the request.  May mutate rec (sets auth_user).
  virtual Verdict Check(RequestRec& rec) = 0;

  /// Phase 3 (execution control): return false to abort the operation.
  virtual bool OnExecution(RequestRec& rec, const OperationObservation& obs) {
    (void)rec;
    (void)obs;
    return true;
  }

  /// Phase 4 (post-execution).
  virtual void OnComplete(RequestRec& rec, const OperationObservation& obs,
                          bool success) {
    (void)rec;
    (void)obs;
    (void)success;
  }

  /// Transport fast-path admission probe: would an *anonymous* `method`
  /// request for `path` from `client_ip` in `tenant`'s namespace ("" = the
  /// default) be decided from an existing memoized pure terminal YES/NO —
  /// no fresh condition evaluation, no side effects?  Must be cheap,
  /// thread-safe and free of side effects (it runs on the transport's
  /// event-loop thread, possibly for requests that are then served on the
  /// ordinary worker path anyway).  Takes views so the event loop never
  /// materializes key strings.  The default says no, which disables the
  /// fast path for controllers that cannot prove it safe.
  virtual bool DecisionIsMemoized(std::string_view path,
                                  std::string_view method,
                                  util::Ipv4Address client_ip,
                                  std::string_view tenant) const {
    (void)path;
    (void)method;
    (void)client_ip;
    (void)tenant;
    return false;
  }

  /// Stronger than DecisionIsMemoized: true only when every request this
  /// controller could ever see is allowed unconditionally AND skipping
  /// Check()/OnExecution()/OnComplete() entirely is unobservable — no
  /// attribution counters, no audit records, no in-flight tracking.  Only
  /// then may the transport answer from the static content plane's
  /// pre-serialized templates without running the pipeline at all
  /// (DESIGN.md §11).  A memoized GAA YES does NOT qualify: its Check()
  /// still bumps per-entry attribution, so it takes the inline-pipeline
  /// tier instead.
  virtual bool AllowsUnchecked() const { return false; }
};

/// Baseline controller: stock Apache .htaccess semantics over the DocTree's
/// per-directory configs.
class HtaccessController final : public AccessController {
 public:
  HtaccessController(const DocTree* tree, const HtpasswdRegistry* passwords)
      : tree_(tree), passwords_(passwords) {}

  Verdict Check(RequestRec& rec) override;

 private:
  const DocTree* tree_;
  const HtpasswdRegistry* passwords_;
};

/// Controller that allows everything (raw-server baseline).
class AllowAllController final : public AccessController {
 public:
  Verdict Check(RequestRec&) override { return Verdict::Allow(); }

  /// Allow-all is trivially memoized: the answer is a constant YES with no
  /// conditions, so the transport may always take the inline fast path.
  bool DecisionIsMemoized(std::string_view, std::string_view,
                          util::Ipv4Address,
                          std::string_view) const override {
    return true;
  }

  /// Check() is a constant YES and the phase callbacks are no-ops, so
  /// skipping them is unobservable — the template fast path is safe.
  bool AllowsUnchecked() const override { return true; }
};

struct AccessLogEntry {
  util::TimePoint time_us = 0;
  std::string client_ip;
  std::string user;
  std::string request_line;
  int status = 0;
  std::uint64_t bytes = 0;
  std::uint64_t trace_id = 0;  ///< joins this entry to its request trace
};

class WebServer {
 public:
  struct Options {
    std::string server_name = "apache-sim/1.0";
    ParseLimits parse_limits;
    std::size_t access_log_limit = 65536;
    /// Admin endpoint path serving Prometheus text metrics, plus JSON
    /// views: "<status_path>/traces" (recent request traces),
    /// "<status_path>/slow" (watchdog-pinned slow traces),
    /// "<status_path>/metrics.json" (all metrics with p50/p95/p99 summaries)
    /// and "<status_path>/policies" (per-EACL-entry decision counts and
    /// per-condition latency percentiles).  It is dispatched AFTER the
    /// access-control phase, so any policy that can protect a document can
    /// protect it.  Empty disables the endpoint.
    std::string status_path = "/__status";
    /// Build the static content plane (DESIGN.md §11): per-document
    /// pre-serialized 200/304 header templates, ETag and Last-Modified
    /// validators, and conditional-GET handling.  Off restores the PR-5
    /// wire behaviour (no validators, never 304) — the benchmark baseline.
    bool enable_static_plane = true;
  };

  WebServer(const DocTree* tree, AccessController* controller,
            util::Clock* clock)
      : WebServer(tree, controller, clock, Options{}) {}
  WebServer(const DocTree* tree, AccessController* controller,
            util::Clock* clock, Options options);

  /// Full pipeline from raw request text.
  HttpResponse HandleText(std::string_view raw, util::Ipv4Address client_ip,
                          std::uint16_t client_port = 0);

  /// Same, with a trace begun by the transport layer (so the trace covers
  /// queueing ahead of parsing).  Null trace = tracing disabled.
  HttpResponse HandleText(std::string_view raw, util::Ipv4Address client_ip,
                          std::uint16_t client_port,
                          std::unique_ptr<telemetry::RequestTrace> trace);

  /// Pipeline from an already-parsed record.
  HttpResponse Handle(RequestRec rec);

  /// Transport fast-path admission (DESIGN.md §10): true when a framed
  /// request with this method/target can safely be handled on the
  /// transport's event-loop thread — a GET for an existing static document
  /// no larger than `max_response_bytes`, with a plain target (no
  /// percent-escapes, query, fragment or dot-dot, so the probe path equals
  /// the parsed path exactly), not the status endpoint, whose access
  /// decision the controller already holds memoized.  The caller still
  /// runs the full HandleText pipeline — admission only chooses *where*
  /// it runs, never what it answers.  `host` is the raw Host header value
  /// ("" when absent): admission resolves the tenant exactly like the
  /// pipeline will, so the probe and the answer can never disagree.
  bool InlineFastPathEligible(std::string_view method, std::string_view target,
                              std::string_view host,
                              std::size_t max_response_bytes,
                              util::Ipv4Address client_ip) const;

  /// One template-served static response: three stable views (the
  /// pre-serialized head split around the Date line, and the document body
  /// straight out of the DocTree) plus the per-request Date line rendered
  /// into a caller-owned buffer.  The wire bytes are
  /// head_pre + date_line + head_post + body.
  struct StaticFastResponse {
    std::string_view head_pre;   ///< status line + headers before Date
    std::string_view head_post;  ///< headers after Date + blank line
    std::string_view body;       ///< empty for HEAD and 304
    char date_line[HttpDateCache::kLineBytes];
    int status = 200;
  };

  /// The transport's zero-allocation tier (DESIGN.md §11): serve `method`
  /// (GET or HEAD) for `target` straight from the static content plane's
  /// templates, skipping the pipeline.  Admitted only when the controller
  /// AllowsUnchecked() (so skipping Check/OnExecution/OnComplete is
  /// unobservable), the target is plain and maps to a templated document
  /// within `max_response_bytes`, and tracing is off (a traced request
  /// must travel the pipeline so its spans exist).  Evaluates
  /// If-None-Match / If-Modified-Since against the entry's validators and
  /// answers 304 when they match.  Performs all request accounting
  /// (requests_served, counters, latency, access log) itself; the caller
  /// only writes the views.  Returns false to fall back; allocation-free
  /// either way once caches are warm.
  /// `host` is the raw Host header value; tenant resolution (and the
  /// per-tenant doc-root remap) happens in a stack buffer, so the tier
  /// stays allocation-free.  A host the router rejects falls back to the
  /// pipeline, which answers the 421.
  bool TryServeStaticFast(std::string_view method, std::string_view target,
                          std::string_view host,
                          std::string_view if_none_match,
                          std::string_view if_modified_since,
                          util::Ipv4Address client_ip, bool keep_alive,
                          std::size_t max_response_bytes,
                          StaticFastResponse* out);

  /// The response-template cache (null when Options::enable_static_plane
  /// is false or the server has no document tree).
  const StaticContentPlane* static_plane() const { return plane_.get(); }

  /// Tenant resolution (DESIGN.md §14).  The router must outlive the
  /// server and be fully configured before serving starts — Resolve() is
  /// read-only and lock-free, so the pipeline and both fast-path tiers
  /// consult it on every request without synchronization.  Null (the
  /// default) or an empty router keeps the single-tenant behaviour: every
  /// request runs in the default ("") namespace.
  void set_tenant_router(const TenantRouter* router) {
    tenant_router_ = router;
  }
  const TenantRouter* tenant_router() const { return tenant_router_; }

  /// Renders "<status_path>/tenants".  The policy plane owns the tenant
  /// table and the IR store, so the integration layer injects the JSON
  /// renderer rather than the http layer reaching down a level.
  using StatusView = std::function<std::string()>;
  void set_tenants_view(StatusView view) { tenants_view_ = std::move(view); }

  /// Cluster mode (DESIGN.md §15): overrides the Prometheus body served at
  /// "<status_path>" — the cluster glue renders this process's registry
  /// with a `process` label and appends the other live processes' slab
  /// metrics from the shared segment.  Unset = single-process rendering,
  /// byte-compatible with previous releases.
  void set_status_prometheus_view(StatusView view) {
    prometheus_view_ = std::move(view);
  }

  /// Cluster mode: enables and renders "<status_path>/cluster" — the
  /// fleet JSON view (generation, per-process liveness/heartbeat/threat,
  /// merged counters).  Unset: the path falls through to document lookup
  /// exactly as before.
  void set_cluster_view(StatusView view) { cluster_view_ = std::move(view); }

  /// Cluster mode: tag "<status_path>/metrics.json" with this process slot
  /// (adds a leading `"process":N` field).  -1 (default) = untagged,
  /// byte-compatible single-process output.
  void set_status_process(int process) { status_process_ = process; }

  /// Invoked when parsing diagnoses a hostile/malformed request — the
  /// integration layer forwards this to the IDS (§3 item 1).
  using MalformedHook =
      std::function<void(RequestDefect, const std::string& detail,
                         util::Ipv4Address client_ip)>;
  void set_malformed_hook(MalformedHook hook) { malformed_hook_ = std::move(hook); }

  /// Report a defect diagnosed below the parser (the transport's framing
  /// layer: truncated bodies, conflicting Content-Length) into the same
  /// IDS-facing hook.
  void ReportMalformed(RequestDefect defect, const std::string& detail,
                       util::Ipv4Address client_ip) {
    if (malformed_hook_) malformed_hook_(defect, detail, client_ip);
  }

  /// Invoked once per served request — worker path, inline pipeline and the
  /// template fast path alike — with the request's transport-level features.
  /// The integration layer feeds this to the streaming IDS (DESIGN.md §12).
  /// Must be cheap and thread-safe: it runs on the event loop for
  /// fast-path serves.
  using RequestObserver =
      std::function<void(std::string_view method, std::string_view target,
                         util::Ipv4Address client_ip, int status)>;
  void set_request_observer(RequestObserver observer) {
    request_observer_ = std::move(observer);
  }

  // --- telemetry ------------------------------------------------------------
  /// Every server owns a default Telemetry instance; the integration layer
  /// swaps in a shared one so GAA/IDS/audit metrics land in the same
  /// registry.  Passing null disables all instrumentation (bench baseline).
  void set_telemetry(telemetry::Telemetry* telemetry);
  telemetry::Telemetry* telemetry() const { return telemetry_; }

  // --- stats / logs ---------------------------------------------------------
  std::uint64_t requests_served() const { return requests_served_.load(); }
  /// Status-code counts, read back from the registry's
  /// `http_responses_total{code="..."}` counters (zero-valued families are
  /// omitted).  Empty when telemetry is detached.
  std::map<int, std::uint64_t> StatusCounts() const;
  std::vector<AccessLogEntry> AccessLog() const;
  void ClearLogs();

 private:
  /// The pipeline proper: access check → /__status or handler → execution
  /// control → completion → access log.  Does not count the request; the
  /// public entry points do (so the latency histogram matches
  /// requests_served exactly, parse failures included).
  HttpResponse DoHandle(RequestRec& rec);
  HttpResponse ServeStatus(RequestRec& rec);
  /// One-stop accounting for every exit path: requests_served_,
  /// `http_requests_total`, the `http_request_latency_us` histogram, and
  /// trace completion.
  void FinishRequest(const util::Stopwatch& sw, int status,
                     std::unique_ptr<telemetry::RequestTrace> trace);
  /// Common response tail for every pipeline exit: bump the 304 counter,
  /// stamp Server and the cached Date header, strip the body of EVERY
  /// HEAD response (any status) while preserving its Content-Length, and
  /// write the access-log entry with the *represented* entity length (what
  /// Content-Length promises, not the bytes placed on the wire).
  HttpResponse FinalizeResponse(RequestRec& rec, HttpResponse response);
  void SetDateHeader(HttpResponse* response);
  void LogAccess(const RequestRec& rec, StatusCode status, std::uint64_t bytes);
  /// RequestRec-free access logging (shared with the template fast path);
  /// reuses ring-slot string capacity, so steady-state appends never touch
  /// the heap.
  void AppendAccessLog(std::string_view method, std::string_view target,
                       std::string_view user, util::Ipv4Address ip, int status,
                       std::uint64_t bytes, std::uint64_t trace_id);
  /// Cached `http_responses_total{code=...}` handle (null when telemetry
  /// is detached).
  telemetry::Counter* StatusCounterFor(int code);

  /// Resolve rec's Host header against the tenant router, stamping
  /// rec.tenant and returning the tenant's doc-root prefix ("" = shared
  /// tree).  Sets *reject when the unknown-host policy says 421.
  std::string_view ResolveTenant(RequestRec& rec, bool* reject) const;

  const DocTree* tree_;
  AccessController* controller_;
  util::Clock* clock_;
  Options options_;
  MalformedHook malformed_hook_;
  RequestObserver request_observer_;
  const TenantRouter* tenant_router_ = nullptr;  ///< null = single-tenant
  StatusView tenants_view_;
  StatusView prometheus_view_;  ///< cluster override for "<status_path>"
  StatusView cluster_view_;     ///< "<status_path>/cluster" (cluster only)
  int status_process_ = -1;     ///< cluster slot tag for metrics.json
  /// Response-template cache over tree_ (DESIGN.md §11); null when
  /// disabled.  Immutable after construction, safe from every thread.
  std::unique_ptr<StaticContentPlane> plane_;
  /// Once-per-second Date line shared by the worker path and every shard's
  /// fast path.
  HttpDateCache date_cache_;

  std::unique_ptr<telemetry::Telemetry> owned_telemetry_;
  telemetry::Telemetry* telemetry_;  ///< null = instrumentation disabled
  telemetry::Counter* requests_total_ = nullptr;   ///< cached handle
  telemetry::Histogram* latency_hist_ = nullptr;   ///< cached handle
  telemetry::Counter* not_modified_total_ = nullptr;  ///< cached handle
  /// Lazily resolved `http_responses_total{code=...}` handles indexed by
  /// status code, so LogAccess never looks a series up by string.
  telemetry::LazyCounterArray<600> status_counters_;

  std::atomic<std::uint64_t> requests_served_{0};
  mutable std::mutex log_mu_;
  /// Bounded access log as a slot ring: slots grow lazily up to
  /// access_log_limit and are then overwritten in place, reusing each
  /// entry's string capacity — the append path stops allocating once the
  /// ring has seen a request shaped like the current one.
  std::vector<AccessLogEntry> log_ring_;
  std::size_t log_next_ = 0;   ///< next slot to (over)write
  std::size_t log_count_ = 0;  ///< live entries (<= access_log_limit)
};

}  // namespace gaa::http
