// E3 — the §7.2 application-level intrusion detection & response
// deployment, measured over a synthetic attack trace.
//
// Reports, per trace: detection rate over known-signature attacks, false
// positives over benign traffic, blacklist growth, and — the paper's key
// claim — how many *unknown-signature* follow-up probes the blacklist
// response blocks ("subsequent requests from that host, checking for
// vulnerabilities we might not yet know about, can still be blocked").
#include <cstdio>

#include "bench_common.h"
#include "util/clock.h"
#include "workload/trace.h"

int main() {
  using namespace gaa::bench;
  using gaa::http::StatusCode;
  using gaa::workload::RequestKind;

  PrintHeader("E3: section 7.2 — intrusion detection and response");

  gaa::web::GaaWebServer::Options options;
  options.use_real_clock = true;
  options.notification_latency_us = 0;
  gaa::web::GaaWebServer server(gaa::http::DocTree::DemoSite(), options);
  server.AddUser("alice", "wonder");
  if (!server.AddSystemPolicy(IntrusionSystemPolicy()).ok() ||
      !server
           .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *%* *///////////////////*
rr_cond_notify local on:failure/sysadmin/info:attack
rr_cond_update_log local on:failure/BadGuys/info:ip
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)")
           .ok()) {
    std::fprintf(stderr, "policy setup failed\n");
    return 1;
  }

  // --- part 1: mixed trace ----------------------------------------------------
  gaa::workload::TraceOptions trace_options;
  trace_options.count = 4000;
  trace_options.attack_fraction = 0.10;
  trace_options.seed = 2003;
  gaa::workload::TraceGenerator gen(trace_options);
  auto trace = gen.Generate();

  std::size_t benign = 0, benign_denied = 0;
  std::size_t signature_attacks = 0, signature_blocked = 0;
  std::size_t illformed = 0, illformed_rejected = 0;
  std::size_t guesses = 0;
  for (const auto& request : trace) {
    auto response = server.HandleText(request.raw, request.client_ip);
    bool denied = response.status == StatusCode::kForbidden;
    bool rejected_400 = static_cast<int>(response.status) >= 400 &&
                        static_cast<int>(response.status) < 500;
    switch (request.kind) {
      case RequestKind::kStaticPage:
      case RequestKind::kSearchCgi:
      case RequestKind::kPrivatePage:
        ++benign;
        if (denied) ++benign_denied;
        break;
      case RequestKind::kCgiProbe:
      case RequestKind::kDosSlashes:
      case RequestKind::kNimdaPercent:
      case RequestKind::kOverflowInput:
        ++signature_attacks;
        if (denied) ++signature_blocked;
        break;
      case RequestKind::kIllFormed:
        ++illformed;
        if (rejected_400) ++illformed_rejected;
        break;
      case RequestKind::kPasswordGuess:
        ++guesses;
        break;
      default:
        break;
    }
  }

  std::printf("trace: %zu requests, %.0f%% attack fraction, seed %llu\n",
              trace.size(), 100.0 * trace_options.attack_fraction,
              static_cast<unsigned long long>(trace_options.seed));
  std::printf("%-34s %10s\n", "metric", "value");
  std::printf("%-34s %9zu/%zu\n", "signature attacks blocked",
              signature_blocked, signature_attacks);
  std::printf("%-34s %9zu/%zu\n", "ill-formed requests rejected",
              illformed_rejected, illformed);
  std::printf("%-34s %9zu/%zu\n", "benign requests denied (FP)",
              benign_denied, benign);
  std::printf("%-34s %10zu\n", "blacklist (BadGuys) size",
              server.state().GroupSize("BadGuys"));
  std::printf("%-34s %10zu\n", "IDS detected-attack reports",
              IdsReportCount(server, gaa::core::ReportKind::kDetectedAttack));
  std::printf("%-34s %10zu\n", "admin notifications sent",
              server.notifier().sent_count());
  std::printf("%-34s %10s\n", "threat level after trace",
              gaa::core::ThreatLevelName(server.state().threat_level()));

  // --- part 2: the unknown-signature blocking claim ---------------------------
  PrintHeader("E3b: blacklist blocks unknown-signature follow-ups");
  std::printf("%-12s %-22s %-10s\n", "scan step", "request kind", "result");
  gaa::web::GaaWebServer fresh(gaa::http::DocTree::DemoSite(), options);
  if (!fresh.AddSystemPolicy(IntrusionSystemPolicy()).ok() ||
      !fresh.SetLocalPolicy("/", IntrusionLocalPolicy()).ok()) {
    std::fprintf(stderr, "policy setup failed\n");
    return 1;
  }
  auto scan = gen.VulnerabilityScan("203.0.113.77", 7);
  std::size_t unknown_blocked = 0;
  for (std::size_t i = 0; i < scan.size(); ++i) {
    auto response = fresh.HandleText(scan[i].raw, scan[i].client_ip);
    bool denied = response.status == StatusCode::kForbidden;
    if (i > 0 && denied) ++unknown_blocked;
    std::printf("%-12zu %-22s %-10s\n", i,
                gaa::workload::RequestKindName(scan[i].kind),
                denied ? "BLOCKED" : "served");
  }
  std::printf("\nunknown-signature probes blocked after the first known hit: "
              "%zu/%zu (paper claim: all)\n",
              unknown_blocked, scan.size() - 1);

  // Without the rr_cond_update_log response, the same scan sails through —
  // quantifies what the response action buys.
  gaa::web::GaaWebServer no_response(gaa::http::DocTree::DemoSite(), options);
  if (!no_response
           .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
pos_access_right apache *
)")
           .ok()) {
    std::fprintf(stderr, "policy setup failed\n");
    return 1;
  }
  std::size_t served_without_response = 0;
  for (std::size_t i = 1; i < scan.size(); ++i) {
    auto response = no_response.HandleText(scan[i].raw, scan[i].client_ip);
    if (response.status != StatusCode::kForbidden) ++served_without_response;
  }
  std::printf("ablation (no blacklist response action): %zu/%zu unknown "
              "probes reach the server\n",
              served_without_response, scan.size() - 1);
  return 0;
}
