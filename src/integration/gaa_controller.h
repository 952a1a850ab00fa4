// The GAA-backed access controller: the paper's glue code (§6).
//
// Check() runs the per-request phases 2a-2d — extract context from the
// request record, build the requested right, compose and evaluate policies,
// translate the three-valued answer to an HTTP response.  OnExecution()
// drives phase 3 (mid-conditions over live operation statistics) and
// OnComplete() phase 4 (post-conditions with the operation outcome).
//
// The controller also emits the §3 GAA→IDS reports the policy conditions do
// not cover themselves: denials of sensitive objects (item 3) and
// legitimate-pattern observations for profile building (item 7).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gaa/api.h"
#include "http/htpasswd.h"
#include "http/server.h"
#include "util/glob.h"

namespace gaa::telemetry {
class Counter;
}  // namespace gaa::telemetry

namespace gaa::web {

class GaaAccessController final : public http::AccessController {
 public:
  struct Options {
    std::string application = "apache";  ///< def_auth of requested rights
    std::string realm = "restricted";
    /// htpasswd store (registry key) used to verify Basic credentials.
    std::string auth_user_file = "default";
    /// Globs naming sensitive objects; a denial on a match is reported to
    /// the IDS as kSensitiveDenial (§3 item 3).
    std::vector<std::string> sensitive_paths;
    /// Report granted requests as legitimate patterns (§3 item 7) so the
    /// IDS can build behaviour profiles.
    bool report_legitimate_patterns = false;
    /// Sliding window for the failed-authentication counter.
    int failed_auth_window_s = 60;
    /// Soft limits above which a request's parameters are reported to the
    /// IDS as abnormally large (§3 item 2).  Reporting only — whether such
    /// requests are *denied* is the policy's decision (pre_cond_expr).
    std::size_t abnormal_query_bytes = 2048;
    std::size_t abnormal_header_count = 50;
  };

  GaaAccessController(core::GaaApi* api,
                      const http::HtpasswdRegistry* passwords)
      : GaaAccessController(api, passwords, Options{}) {}
  GaaAccessController(core::GaaApi* api,
                      const http::HtpasswdRegistry* passwords,
                      Options options);

  Verdict Check(http::RequestRec& rec) override;
  bool OnExecution(http::RequestRec& rec,
                   const http::OperationObservation& obs) override;
  void OnComplete(http::RequestRec& rec,
                  const http::OperationObservation& obs,
                  bool success) override;
  /// Fast-path probe (transport inline serving): delegates to the decision
  /// memo — true only for pure terminal YES/NO answers already cached
  /// against the live snapshot, so volatile/adaptive policies and anything
  /// needing credentials always take the worker path.  Tenant-scoped: the
  /// memo is probed in `tenant`'s namespace against that tenant's
  /// snapshot version and threat epoch.
  bool DecisionIsMemoized(std::string_view path, std::string_view method,
                          util::Ipv4Address client_ip,
                          std::string_view tenant) const override;

  const Options& options() const { return options_; }

  /// Requests currently between Check() and OnComplete().  Zero when the
  /// server is idle — the leak check for the per-request state map.
  std::size_t inflight_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.size();
  }

  /// Build the GAA request context from a request record (paper §6 step
  /// 2b); exposed for tests and the sshd integration.
  core::RequestContext BuildContext(const http::RequestRec& rec) const;

 private:
  struct PerRequest {
    core::RequestContext ctx;
    core::AuthzResult authz;
    bool aborted = false;
  };

  void ReportSensitiveDenial(const core::RequestContext& ctx);
  void ReportLegitimate(const core::RequestContext& ctx);
  void ReportAbnormalParameters(const http::RequestRec& rec);

  core::GaaApi* api_;
  const http::HtpasswdRegistry* passwords_;
  Options options_;
  std::vector<util::CompiledGlob> sensitive_globs_;
  /// Lazily resolved `gaa_decisions_total` handles for every HTTP method
  /// the parser admits × {yes, no, maybe}; other rights fall back to a
  /// registry lookup.  Valid for the API's lifetime (services.metrics is
  /// fixed at construction).
  static constexpr int kDecisionMethods = 7;
  telemetry::LazyCounterArray<kDecisionMethods * 3> decision_counters_;

  /// Per-tenant `tenant_requests_total` handles, cached so the per-request
  /// cost is one shared-lock map probe instead of a registry lookup.
  telemetry::Counter* TenantRequestCounter(const std::string& tenant);

  mutable std::mutex tenant_counter_mu_;
  std::map<std::string, telemetry::Counter*, std::less<>> tenant_counters_;

  mutable std::mutex mu_;
  std::map<const http::RequestRec*, PerRequest> inflight_;
};

}  // namespace gaa::web
