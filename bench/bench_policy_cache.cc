// A1 — ablation of policy caching (paper §9 future work: "we will add
// support for caching of the retrieved and translated policies for later
// reuse by subsequent requests").
//
// The paper's implementation read and translated the policy files on every
// request (gaa_get_object_policy_info).  The compiled PolicySnapshot is the
// §9 cache: policies are parsed and compiled once per change and published
// for lock-free reuse.  We sweep the policy size and compare the
// paper-faithful parse-on-retrieve interpreter with the compiled snapshot,
// for two policy families: signature entries (effect conditions, so no
// decision memoization) and pure host screening (memoized).  Each cell
// reports the median, min and max of kRepetitions per-loop means, so one
// noisy loop cannot move a cell.  A1b checks that the request after a
// policy change sees the new policy.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "util/clock.h"

namespace gaa::bench {
namespace {

std::string PolicyWithEntries(int entries) {
  std::string text;
  for (int i = 0; i < entries - 1; ++i) {
    // Non-matching signature entries: realistic "many rules" policies.
    text += "neg_access_right apache *\n";
    text += "pre_cond_regex gnu *never-seen-" + std::to_string(i) + "*\n";
  }
  text += "pos_access_right apache *\n";
  return text;
}

/// Pure host-screening policy: N-1 non-matching CIDR deny entries, then an
/// unconditional grant.  Every condition is kPure, so the compiled engine
/// both pre-parses the CIDRs at compile time AND memoizes the terminal
/// decision — the interpreter re-tokenizes and re-parses each CIDR on every
/// request.
std::string HostPolicyWithEntries(int entries) {
  std::string text;
  for (int i = 0; i < entries - 1; ++i) {
    text += "neg_access_right apache *\n";
    text += "pre_cond_accessid HOST local 172.16." + std::to_string(i % 250) +
            ".0/24\n";
  }
  text += "pos_access_right apache *\n";
  return text;
}

double MeasureMeanMs(gaa::web::GaaWebServer& server, int iterations) {
  std::vector<double> samples;
  for (int i = 0; i < iterations; ++i) {
    gaa::util::Stopwatch watch;
    (void)server.Get("/docs/guide.html", "10.0.0.1");
    samples.push_back(watch.ElapsedMs());
  }
  return Summarize(std::move(samples)).mean_ms;
}

constexpr int kRepetitions = 5;

struct Spread {
  double median_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

/// Warm `server`, then time kRepetitions loops of 2000 requests.
Spread MeasureSpread(gaa::web::GaaWebServer& server) {
  (void)MeasureMeanMs(server, 200);
  std::vector<double> means_ms;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    means_ms.push_back(MeasureMeanMs(server, 2000));
  }
  std::sort(means_ms.begin(), means_ms.end());
  return {means_ms[means_ms.size() / 2], means_ms.front(), means_ms.back()};
}

/// Server with `policy` on "/": the compiled snapshot engine (the default)
/// or the paper-faithful parse-on-retrieve interpreter.
std::unique_ptr<gaa::web::GaaWebServer> MakeServer(bool compiled,
                                                   const std::string& policy) {
  gaa::web::GaaWebServer::Options options;
  options.use_real_clock = true;
  options.notification_latency_us = 0;
  options.enable_compiled_engine = compiled;
  auto server = std::make_unique<gaa::web::GaaWebServer>(
      gaa::http::DocTree::DemoSite(), options);
  server->policy_store().SetParseOnRetrieve(!compiled);
  if (!server->SetLocalPolicy("/", policy).ok()) {
    std::fprintf(stderr, "policy setup failed\n");
    std::exit(1);
  }
  return server;
}

}  // namespace
}  // namespace gaa::bench

int main(int argc, char** argv) {
  using namespace gaa::bench;
  JsonReport report("policy_cache");
  const std::string json_path = JsonPathFromArgs(argc, argv);

  PrintHeader("A1: parse-on-retrieve interpreter vs compiled snapshot "
              "(paper section 9 future work)");
  std::printf("%d repetitions of 2000 requests per cell: median [min, max] "
              "of the per-repetition means\n",
              kRepetitions);
  std::printf("%-10s %-8s %30s %30s %9s %9s\n", "policy", "entries",
              "parse_ms", "compiled_ms", "speedup", "memo_hit");
  struct Family {
    const char* name;
    std::string (*policy)(int);
  };
  for (const Family& family : {Family{"signature", PolicyWithEntries},
                               Family{"host", HostPolicyWithEntries}}) {
    for (int entries : {1, 4, 16, 64, 256}) {
      const std::string policy = family.policy(entries);
      auto parsed = MakeServer(/*compiled=*/false, policy);
      const Spread parse = MeasureSpread(*parsed);
      auto compiled = MakeServer(/*compiled=*/true, policy);
      const Spread comp = MeasureSpread(*compiled);
      const double speedup = parse.median_ms / comp.median_ms;
      const auto& memo = compiled->api().decision_cache();
      double lookups = static_cast<double>(memo.hits() + memo.misses());
      double memo_hit_rate =
          lookups > 0 ? 100.0 * static_cast<double>(memo.hits()) / lookups
                      : 0.0;
      std::printf(
          "%-10s %-8d %8.5f [%8.5f, %8.5f] %8.5f [%8.5f, %8.5f] %8.2fx "
          "%8.1f%%\n",
          family.name, entries, parse.median_ms, parse.min_ms, parse.max_ms,
          comp.median_ms, comp.min_ms, comp.max_ms, speedup, memo_hit_rate);
      const std::string key =
          std::string(family.name) + "_" + std::to_string(entries);
      report.Set(key, "parse_on_retrieve_ms", parse.median_ms);
      report.Set(key, "parse_on_retrieve_min_ms", parse.min_ms);
      report.Set(key, "parse_on_retrieve_max_ms", parse.max_ms);
      report.Set(key, "compiled_ms", comp.median_ms);
      report.Set(key, "compiled_min_ms", comp.min_ms);
      report.Set(key, "compiled_max_ms", comp.max_ms);
      report.Set(key, "speedup", speedup);
      report.Set(key, "memo_hit_rate_pct", memo_hit_rate);
    }
  }

  // A policy change mid-run must be seen by the very next request; only
  // that request pays the post-swap memo miss.
  PrintHeader("A1b: snapshot republication on policy change");
  auto server = MakeServer(/*compiled=*/true, HostPolicyWithEntries(64));
  (void)MeasureMeanMs(*server, 500);  // warm the memo
  if (!server->SetLocalPolicy("/", "neg_access_right apache *\n").ok()) {
    return 1;
  }
  double first_after_change;
  gaa::http::StatusCode status;
  {
    gaa::util::Stopwatch watch;
    status = server->Get("/docs/guide.html", "10.0.0.1").status;
    first_after_change = watch.ElapsedMs();
  }
  if (status != gaa::http::StatusCode::kForbidden) {
    std::fprintf(stderr, "request after a policy change saw the old policy\n");
    return 1;
  }
  double steady_after = MeasureMeanMs(*server, 500);
  std::printf("first request after change: %.5f ms (denied, as the new "
              "policy says), steady state after: %.5f ms\n",
              first_after_change, steady_after);
  report.Set("invalidation", "first_after_change_ms", first_after_change);
  report.Set("invalidation", "steady_after_ms", steady_after);
  return report.WriteFile(json_path) ? 0 : 1;
}
