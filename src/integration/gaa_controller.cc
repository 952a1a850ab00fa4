#include "integration/gaa_controller.h"

#include "integration/translate.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/strings.h"

namespace gaa::web {

GaaAccessController::GaaAccessController(
    core::GaaApi* api, const http::HtpasswdRegistry* passwords,
    Options options)
    : api_(api), passwords_(passwords), options_(std::move(options)) {
  for (const auto& pattern : options_.sensitive_paths) {
    sensitive_globs_.emplace_back(pattern);
  }
}

core::RequestContext GaaAccessController::BuildContext(
    const http::RequestRec& rec) const {
  core::RequestContext ctx;
  ctx.application = options_.application;
  ctx.operation = rec.method;
  ctx.object = rec.path;
  ctx.query = rec.query;
  ctx.raw_url = rec.raw_target;
  ctx.client_ip = rec.client_ip;
  ctx.client_port = rec.client_port;
  ctx.authenticated = rec.authenticated;
  ctx.user = rec.auth_user;
  ctx.tenant = rec.tenant;
  ctx.trace = rec.trace;

  // Classified parameters (paper §6 step 2b): "context information ... is
  // extracted from the request_rec structure and is added to [the]
  // requested right structure as a list of parameters."
  ctx.AddParam("client_ip", options_.application, rec.client_ip.ToString());
  ctx.AddParam("method", options_.application, rec.method);
  ctx.AddParam("url", options_.application, rec.raw_target);
  ctx.AddParam("cgi_input_length", options_.application,
               std::to_string(rec.query.size()));
  ctx.AddParam("header_count", options_.application,
               std::to_string(rec.headers.size()));
  if (const std::string* ua = rec.Header("user-agent")) {
    ctx.AddParam("user_agent", options_.application, *ua);
  }
  return ctx;
}

bool GaaAccessController::DecisionIsMemoized(
    std::string_view path, std::string_view method,
    util::Ipv4Address client_ip, std::string_view tenant) const {
  return api_->DecisionIsMemoized(
      std::string(path),
      core::RequestedRight{options_.application, std::string(method)},
      client_ip, tenant);
}

http::AccessController::Verdict GaaAccessController::Check(
    http::RequestRec& rec) {
  core::EvalServices& services = api_->services();

  // --- authentication: verify Basic credentials if presented --------------
  if (auto creds = rec.BasicCredentials()) {
    const http::HtpasswdStore* store =
        passwords_ != nullptr ? passwords_->Find(options_.auth_user_file)
                              : nullptr;
    if (store != nullptr && store->Check(creds->first, creds->second)) {
      rec.authenticated = true;
      rec.auth_user = creds->first;
    } else if (services.state != nullptr) {
      // Failed authentication attempt: feed the sliding-window counter the
      // §3-item-4 threshold conditions watch (password-guessing detection).
      services.state->RecordEvent(
          "failed_auth:" + rec.client_ip.ToString(),
          static_cast<util::DurationUs>(options_.failed_auth_window_s) *
              util::kMicrosPerSecond);
    }
  }

  ReportAbnormalParameters(rec);

  // --- phases 2a-2c ---------------------------------------------------------
  core::RequestContext ctx = BuildContext(rec);
  core::RequestedRight right{options_.application, rec.method};
  core::AuthzResult authz = api_->Authorize(rec.path, right, ctx);

  if (services.metrics != nullptr) {
    // Per-tenant request attribution ("" reports as "default" so the
    // single-tenant series exists from the first request).
    if (telemetry::Counter* tc = TenantRequestCounter(rec.tenant)) tc->Inc();
  }

  if (services.metrics != nullptr) {
    // Every method the request parser admits has a slot, so a parsed
    // request never reaches the registry's string lookup.
    static constexpr const char* kMethods[kDecisionMethods] = {
        "GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "TRACE"};
    static constexpr const char* kOutcomes[] = {"yes", "no", "maybe"};
    const int outcome_idx = authz.status == util::Tristate::kYes  ? 0
                            : authz.status == util::Tristate::kNo ? 1
                                                                  : 2;
    auto labels = [&] {
      return "right=\"" + right.value + "\",outcome=\"" +
             kOutcomes[outcome_idx] + "\"";
    };
    int method_idx = 0;
    while (method_idx < kDecisionMethods &&
           right.value != kMethods[method_idx]) {
      ++method_idx;
    }
    telemetry::Counter* counter =
        method_idx < kDecisionMethods
            ? decision_counters_.Get(
                  static_cast<std::size_t>(method_idx * 3 + outcome_idx),
                  *services.metrics, "gaa_decisions_total", labels)
            : services.metrics->GetCounter("gaa_decisions_total", labels());
    counter->Inc();
  }

  // --- §3 reporting ----------------------------------------------------------
  if (authz.status == util::Tristate::kNo) {
    ReportSensitiveDenial(ctx);
  } else if (authz.status == util::Tristate::kYes &&
             options_.report_legitimate_patterns) {
    ReportLegitimate(ctx);
  }

  // Non-grant decisions land in the audit stream with full attribution —
  // which policy, which entry, which condition — so "why was this denied"
  // is answerable from the JSONL alone.  Grants are not audited per-request
  // (volume); their per-entry counters are in /__status/policies.
  if (services.audit != nullptr && authz.status != util::Tristate::kYes) {
    core::AuditEvent event;
    event.category = "decision";
    event.message = std::string("authz=") + util::TristateName(authz.status) +
                    " right=" + right.def_auth + ":" + right.value +
                    " object=" + ctx.object;
    event.trace_id = telemetry::TraceId(ctx.trace);
    event.client = ctx.client_ip.ToString();
    event.tenant = ctx.tenant;
    event.decision = authz.status == util::Tristate::kNo ? "no" : "maybe";
    if (authz.attribution.has_value()) {
      event.policy = authz.attribution->policy;
      event.entry = authz.attribution->entry;
      event.condition = authz.attribution->condition;
    }
    services.audit->Record(event);
  }

  // --- phase 2d: translate ----------------------------------------------------
  Translation translation = TranslateAuthz(authz, options_.realm);
  if (translation.response.has_value()) {
    return Verdict::Respond(*std::move(translation.response));
  }

  // Authorized: remember the context and the granted entry's mid/post
  // blocks for phases 3 and 4.
  PerRequest state;
  state.ctx = std::move(ctx);
  state.authz = std::move(authz);
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_[&rec] = std::move(state);
  }
  return Verdict::Allow();
}

bool GaaAccessController::OnExecution(http::RequestRec& rec,
                                      const http::OperationObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(&rec);
  if (it == inflight_.end()) return true;  // request was not GAA-granted
  PerRequest& state = it->second;

  state.ctx.stats.cpu_seconds = obs.cpu_seconds;
  state.ctx.stats.wall_us = static_cast<util::DurationUs>(obs.wall_us);
  state.ctx.stats.bytes_written = obs.bytes_written;
  state.ctx.stats.memory_bytes = obs.memory_bytes;
  state.ctx.stats.files_created = obs.files_touched;

  if (api_->ExecutionControl(state.authz, state.ctx) == util::Tristate::kNo) {
    state.aborted = true;
    return false;  // abort the operation
  }
  return true;
}

void GaaAccessController::OnComplete(http::RequestRec& rec,
                                     const http::OperationObservation& obs,
                                     bool success) {
  PerRequest state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(&rec);
    if (it == inflight_.end()) return;
    state = std::move(it->second);
    inflight_.erase(it);
  }
  state.ctx.stats.cpu_seconds = obs.cpu_seconds;
  state.ctx.stats.wall_us = static_cast<util::DurationUs>(obs.wall_us);
  state.ctx.stats.bytes_written = obs.bytes_written;
  state.ctx.stats.memory_bytes = obs.memory_bytes;
  state.ctx.stats.files_created = obs.files_touched;
  api_->PostExecutionActions(state.authz, state.ctx, success);
}

telemetry::Counter* GaaAccessController::TenantRequestCounter(
    const std::string& tenant) {
  core::EvalServices& services = api_->services();
  if (services.metrics == nullptr) return nullptr;
  {
    std::lock_guard<std::mutex> lock(tenant_counter_mu_);
    auto it = tenant_counters_.find(tenant);
    if (it != tenant_counters_.end()) return it->second;
  }
  telemetry::Counter* counter = services.metrics->GetCounter(
      "tenant_requests_total",
      "tenant=\"" + (tenant.empty() ? std::string("default") : tenant) +
          "\"");
  std::lock_guard<std::mutex> lock(tenant_counter_mu_);
  tenant_counters_.emplace(tenant, counter);
  return counter;
}

void GaaAccessController::ReportAbnormalParameters(
    const http::RequestRec& rec) {
  core::EvalServices& services = api_->services();
  if (services.ids == nullptr) return;
  std::string what;
  if (rec.query.size() > options_.abnormal_query_bytes) {
    what = "query " + std::to_string(rec.query.size()) + " bytes";
  } else if (rec.headers.size() > options_.abnormal_header_count) {
    what = std::to_string(rec.headers.size()) + " headers";
  } else {
    return;
  }
  core::IdsReport report;
  report.kind = core::ReportKind::kAbnormalParameters;
  report.source_ip = rec.client_ip.ToString();
  report.object = rec.path;
  report.attack_type = "abnormal_parameters";
  report.severity = 3;
  report.confidence = 0.5;
  report.detail = what;
  services.ids->Report(report);
}

void GaaAccessController::ReportSensitiveDenial(
    const core::RequestContext& ctx) {
  core::EvalServices& services = api_->services();
  if (services.ids == nullptr) return;
  for (const auto& glob : sensitive_globs_) {
    if (glob.Matches(ctx.object)) {
      core::IdsReport report;
      report.kind = core::ReportKind::kSensitiveDenial;
      report.source_ip = ctx.client_ip.ToString();
      report.object = ctx.object;
      report.attack_type = "sensitive_object_denied";
      report.severity = 4;
      report.confidence = 0.6;
      report.detail = "access denied to sensitive object";
      services.ids->Report(report);
      return;
    }
  }
}

void GaaAccessController::ReportLegitimate(const core::RequestContext& ctx) {
  core::EvalServices& services = api_->services();
  if (services.ids == nullptr) return;
  core::IdsReport report;
  report.kind = core::ReportKind::kLegitimatePattern;
  report.source_ip = ctx.client_ip.ToString();
  report.object = ctx.object;
  report.attack_type = "";
  report.severity = 0;
  report.confidence = 1.0;
  report.detail = "granted " + ctx.operation + " q_len=" +
                  std::to_string(ctx.query.size());
  services.ids->Report(report);
}

}  // namespace gaa::web
