// A7 — baseline: post-hoc log analysis vs integrated prevention.
//
// The paper's related work (§10) contrasts the GAA integration with
// Almgren et al.'s log-based monitor, which detects attacks in CLF logs
// but "can not directly interact with a web server and, thus, can not stop
// the ongoing attacks."  This harness runs the same attack trace through
//
//   (a) an unprotected server + offline LogMonitor over its access log, and
//   (b) the GAA-integrated server,
//
// and reports how many attack requests were *served* (damage done) in each
// case, plus the two systems' detection counts.
#include <cstdio>

#include "bench_common.h"
#include "http/server.h"
#include "ids/log_monitor.h"
#include "util/clock.h"
#include "workload/trace.h"

int main() {
  using namespace gaa::bench;
  using gaa::http::StatusCode;
  using gaa::workload::RequestKind;

  PrintHeader("A7: log-based monitor (related work) vs GAA prevention");

  gaa::workload::TraceOptions trace_options;
  trace_options.count = 3000;
  trace_options.attack_fraction = 0.12;
  trace_options.seed = 1977;
  gaa::workload::TraceGenerator gen(trace_options);
  auto trace = gen.Generate();

  auto is_signature_attack = [](RequestKind kind) {
    return kind == RequestKind::kCgiProbe || kind == RequestKind::kDosSlashes ||
           kind == RequestKind::kNimdaPercent ||
           kind == RequestKind::kOverflowInput;
  };

  std::size_t attacks = 0;
  for (const auto& r : trace) {
    if (is_signature_attack(r.kind)) ++attacks;
  }

  // --- (a) unprotected server + offline log monitor ---------------------------
  std::size_t served_unprotected = 0;
  std::size_t monitor_detections = 0;
  std::size_t monitor_detected_served = 0;
  {
    auto tree = gaa::http::DocTree::DemoSite();
    gaa::http::AllowAllController controller;
    gaa::http::WebServer server(&tree, &controller,
                                &gaa::util::RealClock::Instance());
    for (const auto& r : trace) {
      auto response = server.HandleText(
          r.raw, gaa::util::Ipv4Address::Parse(r.client_ip).value());
      if (is_signature_attack(r.kind) &&
          response.status == StatusCode::kOk) {
        ++served_unprotected;
      }
    }
    // The nightly log scan (detection happens AFTER the requests ran).
    gaa::ids::LogMonitor monitor;
    gaa::util::Stopwatch scan;
    auto findings = monitor.ScanServerLog(server.AccessLog());
    double scan_ms = scan.ElapsedMs();
    monitor_detections = findings.size();
    for (const auto& finding : findings) {
      if (finding.was_served) ++monitor_detected_served;
    }
    std::printf("offline log scan: %zu log lines in %.2f ms\n",
                server.AccessLog().size(), scan_ms);
  }

  // --- (b) GAA-integrated server -----------------------------------------------
  std::size_t served_gaa = 0;
  std::size_t gaa_live_reports = 0;
  {
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
    for (const auto& r : trace) {
      auto response = server.HandleText(r.raw, r.client_ip);
      if (is_signature_attack(r.kind) && response.status == StatusCode::kOk) {
        ++served_gaa;
      }
    }
    gaa_live_reports =
        IdsReportCount(server, gaa::core::ReportKind::kDetectedAttack);
  }

  std::printf("\n%-44s %10s\n", "metric", "value");
  std::printf("%-44s %10zu\n", "signature attacks in trace", attacks);
  std::printf("%-44s %9zu/%zu\n",
              "(a) log monitor: attacks detected in log",
              monitor_detections, attacks);
  std::printf("%-44s %9zu/%zu\n",
              "(a) log monitor: attacks SERVED before detection",
              served_unprotected, attacks);
  std::printf("%-44s %10zu\n",
              "(a) detections that came too late (served)",
              monitor_detected_served);
  std::printf("%-44s %9zu/%zu\n", "(b) GAA: attacks SERVED", served_gaa,
              attacks);
  std::printf("%-44s %10zu\n", "(b) GAA: live detected-attack reports",
              gaa_live_reports);
  std::printf(
      "\nshape (paper section 10): the log monitor sees the attacks but only\n"
      "after the server already served them; the integrated GAA path serves\n"
      "none — countermeasures apply before damage is done.\n");
  return 0;
}
