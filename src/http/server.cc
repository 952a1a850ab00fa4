#include "http/server.h"

#include <cstring>

#include "telemetry/exposition.h"
#include "util/strings.h"

namespace gaa::http {

AccessController::Verdict HtaccessController::Check(RequestRec& rec) {
  // Apache consults the .htaccess of every directory on the path; the most
  // specific (deepest) decision wins, but any deny along the chain denies.
  HtaccessDecision decision = HtaccessDecision::kAllow;
  std::string realm = "restricted";
  for (const auto& text : tree_->HtaccessChain(rec.path)) {
    auto config = ParseHtaccess(text);
    if (!config.ok()) {
      // A broken .htaccess is a server-side error, and Apache fails closed.
      return Verdict::Respond(HttpResponse::Make(StatusCode::kInternalError));
    }
    HtaccessDecision d = EvaluateHtaccess(config.value(), rec, *passwords_);
    if (d == HtaccessDecision::kDeny) return Verdict::Respond(
        HttpResponse::Make(StatusCode::kForbidden));
    if (d == HtaccessDecision::kAuthRequired) {
      decision = HtaccessDecision::kAuthRequired;
      realm = config.value().auth_name;
    }
  }
  if (decision == HtaccessDecision::kAuthRequired) {
    return Verdict::Respond(HttpResponse::AuthRequired(realm));
  }
  return Verdict::Allow();
}

WebServer::WebServer(const DocTree* tree, AccessController* controller,
                     util::Clock* clock, Options options)
    : tree_(tree),
      controller_(controller),
      clock_(clock),
      options_(std::move(options)),
      owned_telemetry_(std::make_unique<telemetry::Telemetry>()),
      telemetry_(nullptr) {
  if (options_.enable_static_plane && tree_ != nullptr) {
    plane_ =
        std::make_unique<StaticContentPlane>(tree_, options_.server_name);
  }
  set_telemetry(owned_telemetry_.get());
}

void WebServer::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  // Cached handles point into the previous registry; re-resolve lazily.
  status_counters_.Clear();
  if (telemetry_ != nullptr) {
    requests_total_ = telemetry_->registry().GetCounter("http_requests_total");
    latency_hist_ =
        telemetry_->registry().GetHistogram("http_request_latency_us");
    not_modified_total_ =
        telemetry_->registry().GetCounter("http_not_modified_total");
  } else {
    requests_total_ = nullptr;
    latency_hist_ = nullptr;
    not_modified_total_ = nullptr;
  }
}

HttpResponse WebServer::HandleText(std::string_view raw,
                                   util::Ipv4Address client_ip,
                                   std::uint16_t client_port) {
  std::unique_ptr<telemetry::RequestTrace> trace;
  if (telemetry_ != nullptr && telemetry_->tracing_enabled()) {
    trace = telemetry_->tracer().Begin();
  }
  return HandleText(raw, client_ip, client_port, std::move(trace));
}

HttpResponse WebServer::HandleText(
    std::string_view raw, util::Ipv4Address client_ip,
    std::uint16_t client_port,
    std::unique_ptr<telemetry::RequestTrace> trace) {
  util::Stopwatch sw;
  telemetry::RequestTrace* t = trace.get();
  if (t != nullptr && t->client_ip.empty()) {
    t->client_ip = client_ip.ToString();
  }

  telemetry::ScopedSpan parse_span(t, "parse");
  ParseResult parsed = ParseRequest(raw, options_.parse_limits);
  parse_span.End();

  if (!parsed.ok()) {
    if (malformed_hook_) {
      malformed_hook_(parsed.defect, parsed.detail, client_ip);
    }
    StatusCode code = StatusCode::kBadRequest;
    if (parsed.defect == RequestDefect::kOversizedTarget) {
      code = StatusCode::kUriTooLong;
    } else if (parsed.defect == RequestDefect::kTooManyHeaders ||
               parsed.defect == RequestDefect::kOversizedHeader) {
      code = StatusCode::kPayloadTooLarge;
    }
    HttpResponse response = HttpResponse::Make(code);
    RequestRec pseudo;
    pseudo.client_ip = client_ip;
    pseudo.method = "?";
    pseudo.raw_target = std::string(parsed.detail);
    pseudo.trace = t;
    if (t != nullptr) {
      t->method = "?";
      t->target = parsed.detail;
    }
    response = FinalizeResponse(pseudo, std::move(response));
    FinishRequest(sw, static_cast<int>(code), std::move(trace));
    return response;
  }

  RequestRec rec = std::move(*parsed.request);
  rec.client_ip = client_ip;
  rec.client_port = client_port;
  rec.trace = t;
  if (t != nullptr) {
    t->method = rec.method;
    t->target = rec.raw_target;
  }
  HttpResponse response = DoHandle(rec);
  FinishRequest(sw, static_cast<int>(response.status), std::move(trace));
  return response;
}

HttpResponse WebServer::Handle(RequestRec rec) {
  util::Stopwatch sw;
  std::unique_ptr<telemetry::RequestTrace> trace;
  if (rec.trace == nullptr && telemetry_ != nullptr &&
      telemetry_->tracing_enabled()) {
    trace = telemetry_->tracer().Begin();
    rec.trace = trace.get();
  }
  if (rec.trace != nullptr) {
    if (rec.trace->client_ip.empty()) {
      rec.trace->client_ip = rec.client_ip.ToString();
    }
    if (rec.trace->method.empty()) rec.trace->method = rec.method;
    if (rec.trace->target.empty()) rec.trace->target = rec.raw_target;
  }
  HttpResponse response = DoHandle(rec);
  FinishRequest(sw, static_cast<int>(response.status), std::move(trace));
  return response;
}

namespace {

/// Plain static-document targets only: any character the URL decoder or
/// query splitter would transform makes the probe path diverge from the
/// parsed path, and declining admission is always safe.
/// Host values are capped at 255 octets by DNS; a longer one can only be
/// a non-matching host, which normalized truncation preserves.
constexpr std::size_t kHostBufBytes = 256;
/// Stack room for "<doc_root><target>" joins (doc roots are short path
/// prefixes; targets are bounded by the parse limit, 8 KiB by default).
constexpr std::size_t kRemapBufBytes = 9216;

bool PlainStaticTarget(std::string_view target, std::size_t max_bytes) {
  if (target.empty() || target[0] != '/') return false;
  if (target.size() > max_bytes) return false;
  for (char c : target) {
    if (c == '%' || c == '?' || c == '#' || c <= ' ' ||
        static_cast<unsigned char>(c) >= 0x7f) {
      return false;
    }
  }
  return target.find("..") == std::string_view::npos;
}

}  // namespace

bool WebServer::InlineFastPathEligible(std::string_view method,
                                       std::string_view target,
                                       std::string_view host,
                                       std::size_t max_response_bytes,
                                       util::Ipv4Address client_ip) const {
  if (tree_ == nullptr || controller_ == nullptr) return false;
  if (method != "GET" && method != "HEAD") return false;
  if (!PlainStaticTarget(target, options_.parse_limits.max_target_bytes)) {
    return false;
  }
  if (!options_.status_path.empty() &&
      util::StartsWith(target, options_.status_path)) {
    return false;  // admin endpoint renders dynamic content
  }
  // Resolve the tenant exactly as the pipeline will — admission and answer
  // must agree on namespace and document subtree.  A rejected host takes
  // the worker path, which owns the 421.
  std::string_view tenant;
  std::string_view doc_root;
  if (tenant_router_ != nullptr && !tenant_router_->empty()) {
    char hbuf[kHostBufBytes];
    TenantRouter::Resolution res =
        tenant_router_->Resolve(NormalizeHostInto(host, hbuf, sizeof hbuf));
    if (res.reject) return false;
    tenant = res.tenant;
    doc_root = res.doc_root;
  }
  char jbuf[kRemapBufBytes];
  std::string_view lookup =
      TenantRouter::RemapTarget(doc_root, target, jbuf, sizeof jbuf);
  if (lookup.empty()) return false;
  const Document* doc = tree_->FindDocument(lookup);
  if (doc == nullptr || doc->content.size() > max_response_bytes) {
    return false;  // missing or over the inline byte budget
  }
  // The memo is probed with the *logical* path — the object policies (and
  // the worker path's Check) govern — in the resolved tenant's namespace.
  return controller_->DecisionIsMemoized(target, method, client_ip, tenant);
}

bool WebServer::TryServeStaticFast(std::string_view method,
                                   std::string_view target,
                                   std::string_view host,
                                   std::string_view if_none_match,
                                   std::string_view if_modified_since,
                                   util::Ipv4Address client_ip,
                                   bool keep_alive,
                                   std::size_t max_response_bytes,
                                   StaticFastResponse* out) {
  if (plane_ == nullptr || controller_ == nullptr) return false;
  if (method != "GET" && method != "HEAD") return false;
  if (!controller_->AllowsUnchecked()) return false;
  // A traced request must travel the pipeline so its spans exist; the
  // inline-pipeline tier still keeps it off the worker queue.
  if (telemetry_ != nullptr && telemetry_->tracing_enabled()) return false;
  if (!PlainStaticTarget(target, options_.parse_limits.max_target_bytes)) {
    return false;
  }
  if (!options_.status_path.empty() &&
      util::StartsWith(target, options_.status_path)) {
    return false;
  }
  // Per-tenant serving, still allocation-free: host normalization and the
  // doc-root join both land in stack buffers.  Rejected hosts fall back to
  // the pipeline for the 421.
  std::string_view doc_root;
  if (tenant_router_ != nullptr && !tenant_router_->empty()) {
    char hbuf[kHostBufBytes];
    TenantRouter::Resolution res =
        tenant_router_->Resolve(NormalizeHostInto(host, hbuf, sizeof hbuf));
    if (res.reject) return false;
    doc_root = res.doc_root;
  }
  char jbuf[kRemapBufBytes];
  std::string_view lookup =
      TenantRouter::RemapTarget(doc_root, target, jbuf, sizeof jbuf);
  if (lookup.empty()) return false;
  const StaticContentPlane::Entry* entry = plane_->Find(lookup);
  if (entry == nullptr || entry->body.size() > max_response_bytes) {
    return false;
  }

  util::Stopwatch sw;
  const bool not_modified =
      NotModified(if_none_match, if_modified_since, *entry);
  const StaticContentPlane::Entry::Head& head =
      not_modified ? entry->head304[keep_alive ? 1 : 0]
                   : entry->head200[keep_alive ? 1 : 0];
  out->head_pre = head.pre;
  out->head_post = head.post;
  out->body = (not_modified || method == "HEAD") ? std::string_view()
                                                 : entry->body;
  out->status = not_modified
                    ? static_cast<int>(StatusCode::kNotModified)
                    : static_cast<int>(StatusCode::kOk);
  date_cache_.Line(clock_ != nullptr ? clock_->Now() : 0, out->date_line);

  // Accounting identical to the pipeline's: served count, request/304
  // counters, latency histogram, represented-length access log entry.
  requests_served_.fetch_add(1);
  if (requests_total_ != nullptr) requests_total_->Inc();
  if (not_modified && not_modified_total_ != nullptr) {
    not_modified_total_->Inc();
  }
  if (telemetry::Counter* counter = StatusCounterFor(out->status)) {
    counter->Inc();
  }
  const std::uint64_t represented = not_modified ? 0 : entry->body.size();
  AppendAccessLog(method, target, /*user=*/{}, client_ip, out->status,
                  represented, /*trace_id=*/0);
  if (latency_hist_ != nullptr) {
    latency_hist_->Record(static_cast<std::uint64_t>(sw.ElapsedUs()));
  }
  if (request_observer_) {
    request_observer_(method, target, client_ip, out->status);
  }
  return true;
}

HttpResponse WebServer::DoHandle(RequestRec& rec) {
  // --- tenant resolution ----------------------------------------------------
  // Before any dispatch: every later phase — access check, handler lookup,
  // logging — sees the request already placed in its namespace.
  bool reject_host = false;
  std::string_view doc_root = ResolveTenant(rec, &reject_host);
  if (reject_host) {
    return FinalizeResponse(
        rec, HttpResponse::Make(StatusCode::kMisdirectedRequest,
                                "no tenant configured for this host\n"));
  }
  // Per-tenant doc root: documents and CGI resolve under the tenant's
  // subtree, while policies, memos and logs keep the logical path.
  std::string remapped;
  std::string_view lookup = rec.path;
  if (!doc_root.empty()) {
    remapped.reserve(doc_root.size() + rec.path.size());
    remapped.append(doc_root);
    remapped.append(rec.path);
    lookup = remapped;
  }

  // --- access-control phase -------------------------------------------------
  telemetry::ScopedSpan check_span(rec.trace, "access.check");
  AccessController::Verdict verdict = controller_->Check(rec);
  check_span.End();
  if (verdict.respond) {
    return FinalizeResponse(rec, std::move(verdict.response));
  }

  // --- admin/status endpoint ------------------------------------------------
  // Dispatched after the access check, so /__status is protected by exactly
  // the same policy machinery as any document.
  if (!options_.status_path.empty() &&
      (rec.path == options_.status_path ||
       rec.path == options_.status_path + "/traces" ||
       rec.path == options_.status_path + "/slow" ||
       rec.path == options_.status_path + "/metrics.json" ||
       rec.path == options_.status_path + "/policies" ||
       rec.path == options_.status_path + "/tenants" ||
       (cluster_view_ && rec.path == options_.status_path + "/cluster"))) {
    return ServeStatus(rec);
  }

  // --- handler + execution-control phase -------------------------------------
  OperationObservation obs;
  HttpResponse response;
  bool success = true;
  telemetry::ScopedSpan handler_span(rec.trace, "handler");

  if (const Document* doc = tree_->FindDocument(lookup)) {
    const StaticContentPlane::Entry* entry =
        plane_ != nullptr ? plane_->Find(lookup) : nullptr;
    bool not_modified = false;
    if (entry != nullptr) {
      response.headers["ETag"] = entry->etag;
      response.headers["Last-Modified"] = entry->last_modified;
      const std::string* inm = rec.Header("if-none-match");
      const std::string* ims = rec.Header("if-modified-since");
      not_modified = (inm != nullptr || ims != nullptr) &&
                     NotModified(inm != nullptr ? *inm : std::string_view(),
                                 ims != nullptr ? *ims : std::string_view(),
                                 *entry);
    }
    if (not_modified) {
      // Validators matched: header-only 304, explicitly zero-length so
      // keep-alive framing stays unambiguous.  No Content-Type — the
      // response carries no representation.
      response.status = StatusCode::kNotModified;
      response.headers["Content-Length"] = "0";
      obs.bytes_written = 0;
    } else {
      response.status = StatusCode::kOk;
      // Zero-copy: the body is a view into the DocTree's stable storage
      // (templated documents) — only untemplated trees still copy.
      if (entry != nullptr) {
        response.body_view = entry->body;
      } else {
        response.body = doc->content;
      }
      response.headers["Content-Type"] = doc->content_type;
      obs.bytes_written = doc->content.size();
    }
    obs.cpu_seconds = 1e-5;
    obs.wall_us = 10;
    if (!controller_->OnExecution(rec, obs)) {
      response = HttpResponse::Make(StatusCode::kForbidden,
                                    "operation aborted by policy\n");
      success = false;
    }
  } else if (const CgiScript* cgi = tree_->FindCgi(lookup)) {
    CgiResult result = (*cgi)(rec.query);
    obs.cpu_seconds = result.cpu_seconds;
    obs.wall_us = static_cast<std::uint64_t>(result.cpu_seconds * 1e6);
    obs.memory_bytes = result.memory_bytes;
    obs.bytes_written = result.output.size();
    obs.files_touched = result.files_touched;
    if (!controller_->OnExecution(rec, obs)) {
      // Execution-control phase pulled the plug mid-operation.
      response = HttpResponse::Make(StatusCode::kForbidden,
                                    "operation aborted by policy\n");
      success = false;
    } else if (!result.ok) {
      response = HttpResponse::Make(StatusCode::kInternalError);
      success = false;
    } else {
      response.status = StatusCode::kOk;
      response.body = result.output;
      response.headers["Content-Type"] = "text/plain";
    }
  } else if (const StreamingCgiScript* streaming =
                 tree_->FindStreamingCgi(lookup)) {
    // Long-running operation: the execution-control phase runs BETWEEN
    // steps, so a violated mid-condition aborts the operation while it is
    // still producing output (paper phase 3).
    std::string body;
    bool aborted = false;
    for (std::size_t step = 0;; ++step) {
      std::optional<CgiStep> next = (*streaming)(step, rec.query);
      if (!next.has_value()) break;
      body += next->chunk;
      obs.cpu_seconds += next->cpu_seconds;
      obs.memory_bytes += next->memory_bytes;
      obs.bytes_written = body.size();
      obs.wall_us = static_cast<std::uint64_t>(obs.cpu_seconds * 1e6);
      obs.files_touched.insert(obs.files_touched.end(),
                               next->files_touched.begin(),
                               next->files_touched.end());
      if (!controller_->OnExecution(rec, obs)) {
        aborted = true;
        break;
      }
    }
    if (aborted) {
      response = HttpResponse::Make(StatusCode::kForbidden,
                                    "operation aborted by policy\n");
      success = false;
    } else {
      response.status = StatusCode::kOk;
      response.body = std::move(body);
      response.headers["Content-Type"] = "text/plain";
    }
  } else {
    response = HttpResponse::Make(StatusCode::kNotFound);
    success = false;
  }
  handler_span.End();

  // --- post-execution phase ---------------------------------------------------
  controller_->OnComplete(rec, obs, success);

  telemetry::ScopedSpan respond_span(rec.trace, "respond");
  return FinalizeResponse(rec, std::move(response));
}

HttpResponse WebServer::ServeStatus(RequestRec& rec) {
  telemetry::ScopedSpan handler_span(rec.trace, "handler");
  OperationObservation obs;
  HttpResponse response;
  bool success = true;

  if (telemetry_ == nullptr) {
    response = HttpResponse::Make(StatusCode::kNotFound);
    success = false;
  } else if (rec.path == options_.status_path) {
    response.status = StatusCode::kOk;
    // Cluster mode swaps in a fleet-aware renderer (process labels + other
    // processes' shm slabs); otherwise: this process's registry, verbatim.
    response.body = prometheus_view_
                        ? prometheus_view_()
                        : telemetry::RenderPrometheus(telemetry_->registry());
    response.headers["Content-Type"] =
        "text/plain; version=0.0.4; charset=utf-8";
  } else {
    response.status = StatusCode::kOk;
    if (rec.path == options_.status_path + "/slow") {
      response.body = telemetry::RenderSlowTracesJson(telemetry_->tracer());
    } else if (rec.path == options_.status_path + "/metrics.json") {
      response.body =
          status_process_ >= 0
              ? telemetry::RenderMetricsJson(telemetry_->registry(),
                                             status_process_)
              : telemetry::RenderMetricsJson(telemetry_->registry());
    } else if (rec.path == options_.status_path + "/policies") {
      response.body = telemetry::RenderPoliciesJson(telemetry_->registry());
    } else if (rec.path == options_.status_path + "/tenants") {
      // The tenant table and the IR store live in the policy plane; the
      // integration layer supplies the renderer.
      response.body = tenants_view_ ? tenants_view_() : "{}";
    } else if (cluster_view_ && rec.path == options_.status_path + "/cluster") {
      response.body = cluster_view_();
    } else {
      response.body = telemetry::RenderTracesJson(telemetry_->tracer());
    }
    response.headers["Content-Type"] = "application/json";
  }
  obs.bytes_written = response.body.size();
  obs.cpu_seconds = 1e-5;
  obs.wall_us = 10;
  if (success && !controller_->OnExecution(rec, obs)) {
    response = HttpResponse::Make(StatusCode::kForbidden,
                                  "operation aborted by policy\n");
    success = false;
  }
  handler_span.End();

  controller_->OnComplete(rec, obs, success);

  telemetry::ScopedSpan respond_span(rec.trace, "respond");
  return FinalizeResponse(rec, std::move(response));
}

std::string_view WebServer::ResolveTenant(RequestRec& rec,
                                          bool* reject) const {
  *reject = false;
  if (tenant_router_ == nullptr || tenant_router_->empty()) return {};
  const std::string* host = rec.Header("host");
  char buf[kHostBufBytes];
  TenantRouter::Resolution res = tenant_router_->Resolve(NormalizeHostInto(
      host != nullptr ? std::string_view(*host) : std::string_view(), buf,
      sizeof buf));
  if (res.reject) {
    *reject = true;
    return {};
  }
  rec.tenant.assign(res.tenant);
  return res.doc_root;
}

HttpResponse WebServer::FinalizeResponse(RequestRec& rec,
                                         HttpResponse response) {
  if (response.status == StatusCode::kNotModified &&
      not_modified_total_ != nullptr) {
    not_modified_total_->Inc();
  }
  response.headers["Server"] = options_.server_name;
  SetDateHeader(&response);
  // The represented length is what Content-Length promises — for HEAD the
  // body is stripped (every status, not just 200) but the length, and the
  // access-log byte count, still describe the entity.
  const std::uint64_t represented = response.BodySize();
  if (rec.method == "HEAD") {
    response.headers["Content-Length"] = std::to_string(represented);
    response.ClearBody();
  }
  LogAccess(rec, response.status, represented);
  if (request_observer_) {
    request_observer_(rec.method, rec.path, rec.client_ip,
                      static_cast<int>(response.status));
  }
  return response;
}

void WebServer::SetDateHeader(HttpResponse* response) {
  char line[HttpDateCache::kLineBytes];
  date_cache_.Line(clock_ != nullptr ? clock_->Now() : 0, line);
  // Value only — SerializeHead adds the "Date: " name and CRLF back, so
  // the wire bytes equal the template path's cached line.
  response->headers["Date"].assign(line + 6, kHttpDateBytes);
}

void WebServer::FinishRequest(const util::Stopwatch& sw, int status,
                              std::unique_ptr<telemetry::RequestTrace> trace) {
  requests_served_.fetch_add(1);
  if (requests_total_ != nullptr) requests_total_->Inc();
  if (latency_hist_ != nullptr) {
    latency_hist_->Record(static_cast<std::uint64_t>(sw.ElapsedUs()));
  }
  if (trace != nullptr && telemetry_ != nullptr) {
    trace->status = status;
    telemetry_->tracer().Finish(std::move(trace));
  }
}

telemetry::Counter* WebServer::StatusCounterFor(int code) {
  if (telemetry_ == nullptr) return nullptr;
  auto labels = [code] { return "code=\"" + std::to_string(code) + "\""; };
  if (code < 0 || code >= static_cast<int>(status_counters_.kSize)) {
    return telemetry_->registry().GetCounter("http_responses_total",
                                             labels());
  }
  return status_counters_.Get(static_cast<std::size_t>(code),
                              telemetry_->registry(), "http_responses_total",
                              labels);
}

void WebServer::LogAccess(const RequestRec& rec, StatusCode status,
                          std::uint64_t bytes) {
  if (telemetry::Counter* counter =
          StatusCounterFor(static_cast<int>(status))) {
    counter->Inc();
  }
  AppendAccessLog(rec.method, rec.raw_target, rec.auth_user, rec.client_ip,
                  static_cast<int>(status), bytes,
                  rec.trace != nullptr ? rec.trace->id() : 0);
}

void WebServer::AppendAccessLog(std::string_view method,
                                std::string_view target,
                                std::string_view user, util::Ipv4Address ip,
                                int status, std::uint64_t bytes,
                                std::uint64_t trace_id) {
  const std::size_t limit = options_.access_log_limit;
  if (limit == 0) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  if (log_count_ < limit && log_next_ == log_ring_.size()) {
    log_ring_.emplace_back();  // still growing toward the limit
  }
  AccessLogEntry& entry = log_ring_[log_next_];
  log_next_ = (log_next_ + 1) % limit;
  if (log_count_ < limit) ++log_count_;
  entry.time_us = clock_ != nullptr ? clock_->Now() : 0;
  entry.client_ip = ip.ToString();  // <= 15 chars: always in-situ
  entry.user.assign(user.empty() ? std::string_view("-") : user);
  entry.request_line.clear();  // keeps capacity: steady state reuses it
  entry.request_line.append(method);
  entry.request_line.push_back(' ');
  entry.request_line.append(target);
  entry.status = status;
  entry.bytes = bytes;
  entry.trace_id = trace_id;
}

std::map<int, std::uint64_t> WebServer::StatusCounts() const {
  std::map<int, std::uint64_t> out;
  if (telemetry_ == nullptr) return out;
  for (const auto& e : telemetry_->registry().List()) {
    if (e.kind != telemetry::MetricKind::kCounter ||
        e.name != "http_responses_total") {
      continue;
    }
    const auto q1 = e.labels.find('"');
    const auto q2 = e.labels.rfind('"');
    if (q1 == std::string::npos || q2 <= q1) continue;
    const std::uint64_t value = e.counter->Value();
    if (value == 0) continue;  // reset counters are invisible, like before
    out[std::stoi(e.labels.substr(q1 + 1, q2 - q1 - 1))] = value;
  }
  return out;
}

std::vector<AccessLogEntry> WebServer::AccessLog() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  std::vector<AccessLogEntry> out;
  out.reserve(log_count_);
  const std::size_t limit = options_.access_log_limit;
  const std::size_t start =
      limit == 0 ? 0 : (log_next_ + limit - log_count_) % limit;
  for (std::size_t i = 0; i < log_count_; ++i) {
    out.push_back(log_ring_[(start + i) % limit]);
  }
  return out;
}

void WebServer::ClearLogs() {
  {
    // Reset the indices but keep the slots — their string capacities are
    // the reason steady-state appends stay off the heap.
    std::lock_guard<std::mutex> lock(log_mu_);
    log_next_ = 0;
    log_count_ = 0;
  }
  if (telemetry_ != nullptr) {
    for (const auto& e : telemetry_->registry().List()) {
      if (e.kind == telemetry::MetricKind::kCounter &&
          e.name == "http_responses_total") {
        e.counter->Reset();
      }
    }
  }
}

}  // namespace gaa::http
