// perfbench: the repository benchmark.
//
//   perfbench --workload static_get|mixed --seed N --seconds S
//             --trace 0|1 [--out DIR] [--commit ID]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics: set-up time, open-loop
// latency at the workload's fixed rate, server CPU per request, peak RSS
// and the highest ladder rate that holds the latency limit.  --trace 1
// measures the per-layer metrics from a run with spans at the public
// seams, plus an untraced run of the same phase for the tracing overhead.
// The last line of standard output is the result as one JSON object.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "driver.h"
#include "http/doc_tree.h"
#include "http/request.h"
#include "selftest.h"
#include "server.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return args->selftest || (!args->workload.empty() && args->seconds > 0);
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Everything the metrics need from one phase.
struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t answered = 0;
  /// Requests expecting a response; lost or failed ones are infinite.
  std::vector<double> latency_us;
  std::vector<double> benign_latency_us;
  std::vector<double> send_lag_us;
  double achieved_rps = 0;
  std::uint64_t connections = 0;
  std::map<std::string, std::size_t> failed_by_kind;
};

PhaseStats Summarize(const Schedule& schedule,
                     const std::vector<Payload>& payloads,
                     const PhaseResult& result) {
  PhaseStats s;
  s.attempted = schedule.requests.size();
  s.connections = result.connections;
  std::int64_t end_ns = static_cast<std::int64_t>(schedule.seconds * 1e9);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < schedule.requests.size(); ++i) {
    const Request& r = schedule.requests[i];
    const Payload& p = payloads[r.payload];
    const Outcome& o = result.outcomes[i];
    if (o.sent_ns >= 0) {
      s.send_lag_us.push_back(static_cast<double>(o.sent_ns - r.due_ns) / 1e3);
    }
    if (!o.ok) {
      ++s.failed;
      ++s.failed_by_kind[gaa::workload::RequestKindName(p.kind)];
    } else {
      ++completed;
    }
    if (p.partial) {
      if (o.sent_ns >= 0) end_ns = std::max(end_ns, o.sent_ns);
      continue;
    }
    if (o.done_ns >= 0) {
      ++s.answered;
      end_ns = std::max(end_ns, o.done_ns);
    }
    if (!o.ok) {
      // Lost and failed requests count as over any latency limit.
      s.latency_us.push_back(INFINITY);
      if (p.benign) s.benign_latency_us.push_back(INFINITY);
      continue;
    }
    const double lat = static_cast<double>(o.done_ns - r.due_ns) / 1e3;
    s.latency_us.push_back(lat);
    if (p.benign) s.benign_latency_us.push_back(lat);
  }
  s.achieved_rps = static_cast<double>(completed) * 1e9 /
                   static_cast<double>(std::max<std::int64_t>(end_ns, 1));
  return s;
}

/// Host-wide CPU ticks from /proc/stat: {steal, total}.
std::pair<long long, long long> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  long long total = 0;
  for (int i = 0; i < n; ++i) total += v[i];
  return {n == 8 ? v[7] : 0, total};
}

struct Setup {
  std::size_t nproc = 1;
  std::size_t generator_threads = 1;
  ServerConfig server;
  WorkloadSpec spec{};
  /// CpuTicks() at the start of the run.  The provenance reports the share
  /// of CPU time the hypervisor took from the host's CPUs (steal), which
  /// inflates every latency without showing in the server's CPU time.
  std::pair<long long, long long> ticks_at_start;
};

double StealShare(const Setup& setup) {
  const auto now = CpuTicks();
  const long long total = now.second - setup.ticks_at_start.second;
  return total > 0 ? static_cast<double>(now.first - setup.ticks_at_start.first) /
                         static_cast<double>(total)
                   : 0.0;
}

std::string Kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

void PrintProvenance(const Args& args, const Setup& setup) {
  std::printf(
      "provenance {\"nproc\": %zu, \"compiler\": \"gcc %s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"kernel\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"fixed_rps\": %g, \"latency_limit_us\": %g, \"shards\": %zu, "
      "\"workers\": %zu, \"generator_threads\": %zu, \"lanes\": %zu, "
      "\"session_length\": %zu, \"client_pool\": %zu, \"attackers\": %zu, "
      "\"deny_list_entries\": %d, \"host_steal\": %.4f}\n",
      setup.nproc, __VERSION__, PERFBENCH_BUILD_TYPE, args.commit.c_str(),
      Kernel().c_str(), setup.spec.name,
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      setup.spec.fixed_rps, kLatencyLimitUs, setup.server.shards,
      setup.server.workers, setup.generator_threads, setup.spec.lanes,
      kSessionLength, kClientPoolSize, kAttackers,
      kDenyListEntries, StealShare(setup));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Accumulates attempts and failures over every phase of the run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void Add(const char* phase, const PhaseStats& s) {
    attempted += s.attempted;
    failed += s.failed;
    for (const auto& [kind, n] : s.failed_by_kind) {
      problems.push_back(std::string(phase) + ": " + std::to_string(n) + " " +
                         kind + " requests failed their check");
    }
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Workload invariants the server's own counters must show.
void CheckLayers(const Setup& setup, std::map<std::string, double>& stats,
                 Tally* tally) {
  const double reports = stats["ids.report_count"];
  if (setup.spec.workload == Workload::kStaticGet) {
    tally->Expect(reports == 0, "static_get filed " +
                                    std::to_string(reports) + " IDS reports");
    tally->Expect(stats["gaa.memo_hits"] > 0, "static_get had no memo hits");
    tally->Expect(stats["transport.inline_served"] > 0,
                  "static_get served nothing inline");
  } else {
    tally->Expect(reports > 0, "attack traffic filed no IDS reports");
  }
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nanoseconds the host takes for a fixed integer loop over a 1 MiB table,
/// code that shares nothing with the server.  On the 4-vCPU KVM guest the
/// benchmark was tuned on, speed drifted by 15-30% over minutes with
/// outside load, and the server's times followed the loop's: over eight
/// runs per workload, CPU per request divided by the loop's time spread
/// 2-4x less than CPU per request itself.
double CalibrationNs() {
  static std::vector<std::uint64_t> table(1 << 17, 1);
  std::uint64_t x = 1;
  const std::int64_t t0 = MonoNs();
  for (int i = 0; i < 1'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 40) & (table.size() - 1)] += x;
  }
  const std::int64_t t1 = MonoNs();
  if (table[x & (table.size() - 1)] == 0) std::abort();  // keeps the loop
  return static_cast<double>(t1 - t0);
}

// --- --trace 0 ---------------------------------------------------------------

/// Phase lengths as shares of --seconds.
constexpr double kWarmShare = 0.02;
constexpr double kFixedShare = 0.5;
constexpr double kProbeShare = 0.075;
/// The fixed-rate phase runs as this many valid blocks, and its metrics are
/// medians over the less-stolen half of them.  The end-to-end run
/// spreads the blocks over the whole run, between capacity probes, because
/// a shared host's speed drifts over tens of seconds with outside load.
constexpr int kBlocks = 32;
constexpr int kBlocksPerProbe = 2;
/// Capacity search: coarse ladder steps (2^(16/32) = 1.41x) and a probe cap.
constexpr int kCoarseRungs = 16;
constexpr int kMaxProbes = 8;
/// A block or probe during which the hypervisor took more than this share
/// of the host's CPU time was disturbed from outside.  (One /proc/stat tick
/// in a 0.3 s block on 4 CPUs is 0.8%.)
constexpr double kCalmSteal = 0.01;
/// Probes that fail while disturbed are repeated, at most this often a run.
constexpr int kMaxDisturbedRetries = 4;
/// The lower quartile of CalibrationNs() on the 4-vCPU host the benchmark
/// was tuned on.  The end-to-end times are scaled to that host's speed:
/// each is multiplied by kReferenceCalibrationNs / (the run's lower
/// quartile), rates are divided by it.
constexpr double kReferenceCalibrationNs = 2.2e6;

/// The fixed-rate phase's results: block medians plus every block pooled.
struct FixedPhase {
  PhaseStats pooled;
  double p50_us = 0;
  double p90_us = 0;
  double benign_p90_us = 0;
  double cpu_us_per_req = 0;
  double calibration_ns = 0;  ///< lower quartile of CalibrationNs() per block
  /// The server's VmHWM after the first kBlocks blocks, before any
  /// replacement block adds clients to it.
  double peak_rss_mb = 0;
  std::int64_t start_ns = 0;  ///< MonoNs() of the first block's start
  std::int64_t end_ns = 0;    ///< MonoNs() of the last block's scheduled end
};

/// The fixed-rate phase on one server: a warm-up (caches fill, lazy set-up
/// finishes), then kBlocks blocks, run in as many batches as the caller
/// likes, plus replacements for blocks in which the generator fell behind.
/// With `spans`, counters are reset after the warm-up and client
/// round trips are recorded as spans.
class FixedRate {
 public:
  FixedRate(ServerProcess& server, ScheduleBuilder& schedules,
            const Setup& setup, double seconds, bool spans, Tally* tally)
      : server_(server),
        schedules_(schedules),
        setup_(setup),
        block_seconds_(kFixedShare * seconds / kBlocks),
        spans_(spans),
        tally_(tally) {
    const Schedule warm =
        schedules.Build(0, setup.spec.fixed_rps, kWarmShare * seconds);
    tally->Add("warm-up", Summarize(warm, schedules.payloads(),
                                    RunPhase(warm, schedules.payloads(),
                                             server.port(),
                                             setup.generator_threads, false,
                                             0)));
    if (spans) tally->Expect(server.ResetCounters(), "counter reset failed");
  }

  /// Runs up to `n` of the blocks not run yet.
  void RunBlocks(int n) {
    SpanLog::Enable(spans_);
    for (; n > 0 && next_ < kBlocks; --n) RunBlock();
    SpanLog::Enable(false);
  }

  /// Runs the remaining blocks and summarizes the phase.
  FixedPhase Result() {
    RunBlocks(kBlocks);
    out_.peak_rss_mb = server_.PeakRssMb();
    // A block in which the generator fell behind (its send lag p99 is not
    // below its p90) measures the generator, not the server: host stalls
    // that hit the generator's threads do that.  Such blocks are left out
    // and replaced at the end, and so are blocks disturbed by hypervisor
    // steal, up to kBlocks replacements.  When fewer than kBlocks blocks
    // are valid then, the run fails.
    SpanLog::Enable(spans_);
    while (CalmValidBlocks() < kBlocks && next_ < 2 * kBlocks) RunBlock();
    SpanLog::Enable(false);
    const int valid = ValidBlocks();
    tally_->Expect(valid >= kBlocks,
                   "the generator fell behind in " +
                       std::to_string(next_ - valid) + " of " +
                       std::to_string(next_) + " fixed-rate blocks");
    for (const auto& [name, values] :
         {std::pair{"p50", &p50_}, {"p90", &p90_}, {"cpu", &cpu_},
          {"send lag p99", &lag_p99_}, {"steal %", &steal_},
          {"calibration us", &calibration_}}) {
      std::fprintf(stderr, "fixed-rate blocks, %s:", name);
      for (double v : *values) {
        std::fprintf(stderr, " %.0f",
                     values == &steal_         ? 100 * v
                     : values == &calibration_ ? v / 1e3
                                               : v);
      }
      std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr,
                 "fixed rate %.0f rps: %zu requests, send lag p99 %.1f us\n",
                 setup_.spec.fixed_rps, out_.pooled.attempted,
                 Quantile(out_.pooled.send_lag_us, 0.99));
    // The metrics are medians over the valid blocks during which the
    // hypervisor took no more CPU time from the host than in the median
    // valid block: stolen time stalls the server and the generator alike
    // and says nothing about the code under test.
    std::vector<double> sorted_steal;
    for (std::size_t i = 0; i < steal_.size(); ++i) {
      if (BlockValid(i)) sorted_steal.push_back(steal_[i]);
    }
    if (sorted_steal.empty()) sorted_steal.push_back(0);
    std::sort(sorted_steal.begin(), sorted_steal.end());
    const double steal_cutoff = sorted_steal[(sorted_steal.size() - 1) / 2];
    auto median_of = [&](const std::vector<double>& values) {
      std::vector<double> kept;
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (BlockValid(i) && steal_[i] <= steal_cutoff) {
          kept.push_back(values[i]);
        }
      }
      return Median(kept);
    };
    out_.p50_us = median_of(p50_);
    out_.p90_us = median_of(p90_);
    out_.benign_p90_us = median_of(benign_p90_);
    out_.cpu_us_per_req = median_of(cpu_);
    // The lower quartile: hypervisor steal inflates some loops, and the
    // server's CPU time does not count stolen time.
    out_.calibration_ns = Quantile(calibration_, 0.25);
    std::fprintf(stderr, "calibration lower quartile %.0f ns\n",
                 out_.calibration_ns);
    return out_;
  }

 private:
  bool BlockValid(std::size_t i) const { return lag_p99_[i] < p90_[i]; }

  int ValidBlocks() const {
    int n = 0;
    for (std::size_t i = 0; i < p90_.size(); ++i) n += BlockValid(i);
    return n;
  }

  int CalmValidBlocks() const {
    int n = 0;
    for (std::size_t i = 0; i < p90_.size(); ++i) {
      n += BlockValid(i) && steal_[i] <= kCalmSteal;
    }
    return n;
  }

  /// Runs block next_ and records its figures.
  void RunBlock() {
    const auto b = static_cast<std::uint64_t>(next_);
    const Schedule block =
        schedules_.Build(1 + b, setup_.spec.fixed_rps, block_seconds_);
    calibration_.push_back(CalibrationNs());
    const auto ticks0 = CpuTicks();
    const std::int64_t cpu0 = server_.CpuNs();
    const PhaseResult result =
        RunPhase(block, schedules_.payloads(), server_.port(),
                 setup_.generator_threads, spans_, (b + 1) << 32);
    const std::int64_t cpu1 = server_.CpuNs();
    const auto ticks1 = CpuTicks();
    steal_.push_back(
        SafeRatio(static_cast<double>(ticks1.first - ticks0.first),
                  static_cast<double>(ticks1.second - ticks0.second)));
    const PhaseStats s = Summarize(block, schedules_.payloads(), result);
    tally_->Add("fixed", s);
    if (next_ == 0) out_.start_ns = result.epoch_ns;
    out_.end_ns =
        result.epoch_ns + static_cast<std::int64_t>(block_seconds_ * 1e9);
    ++next_;

    p50_.push_back(Quantile(s.latency_us, 0.5));
    p90_.push_back(Quantile(s.latency_us, 0.9));
    benign_p90_.push_back(Quantile(s.benign_latency_us, 0.9));
    cpu_.push_back(SafeRatio(static_cast<double>(cpu1 - cpu0) / 1e3,
                             static_cast<double>(s.answered)));
    lag_p99_.push_back(Quantile(s.send_lag_us, 0.99));

    PhaseStats& all = out_.pooled;
    all.attempted += s.attempted;
    all.failed += s.failed;
    all.answered += s.answered;
    all.connections += s.connections;
    all.latency_us.insert(all.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
    all.benign_latency_us.insert(all.benign_latency_us.end(),
                                 s.benign_latency_us.begin(),
                                 s.benign_latency_us.end());
    all.send_lag_us.insert(all.send_lag_us.end(), s.send_lag_us.begin(),
                           s.send_lag_us.end());
  }

  ServerProcess& server_;
  ScheduleBuilder& schedules_;
  const Setup& setup_;
  double block_seconds_;
  bool spans_;
  Tally* tally_;
  int next_ = 0;
  FixedPhase out_;
  std::vector<double> p50_;
  std::vector<double> p90_;
  std::vector<double> benign_p90_;
  std::vector<double> cpu_;
  std::vector<double> lag_p99_;  ///< send lag p99 of each block
  std::vector<double> steal_;  ///< host steal share during each block
  std::vector<double> calibration_;  ///< CalibrationNs() before each block
};

bool StartServer(const ServerConfig& config, ServerProcess* server) {
  std::string error;
  if (server->Start(config, &error)) return true;
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  return false;
}

int Finish(const Args& args, const Setup& setup, const Tally& tally,
           const std::vector<Metric>& metrics) {
  for (const std::string& problem : tally.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::fprintf(stderr, "error_ratio %.6f (%zu of %zu)\n",
               SafeRatio(static_cast<double>(tally.failed),
                         static_cast<double>(tally.attempted)),
               tally.failed, tally.attempted);
  PrintProvenance(args, setup);
  const bool correct = tally.problems.empty() && tally.failed == 0;
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

// --- --trace 0 ---------------------------------------------------------------

int RunEndToEnd(const Args& args, const Setup& setup) {
  Tally tally;
  std::vector<double> setups;  // one cold start per server the run forks
  const gaa::http::DocTree tree = gaa::http::DocTree::DemoSite();
  ScheduleBuilder schedules(setup.spec, args.seed, tree);
  const WorkloadSpec& spec = setup.spec;
  const std::size_t threads = setup.generator_threads;

  ServerProcess server;
  if (!StartServer(setup.server, &server)) return 1;
  setups.push_back(server.setup_seconds());
  FixedRate fixed_rate(server, schedules, setup, args.seconds, false, &tally);

  // Capacity search on the ladder.  Every probe gets a fresh server and the
  // same short warm-up, so a verdict does not depend on which probes ran
  // before it (attack state such as the IDS alert window starts empty).  A
  // rung fails only when two probes at it fail: outside load on the host
  // can sink one probe, but it does not speed one up.  For the same reason
  // a probe that fails while disturbed by hypervisor steal does not count
  // and is repeated (kMaxDisturbedRetries a run).  Requests a probe
  // loses or gets wrong only fail the probe (as infinite latencies): past
  // the knee the server may legitimately drop them.  The probe's warm-up
  // runs at the fixed rate and is checked like the fixed-rate phase.
  std::fprintf(stderr, "capacity search (p90 limit %.0f us):\n",
               kLatencyLimitUs);
  // Whether a probe at `rung` passes; *steal is the host's steal share
  // during its load.
  auto probe = [&](int rung, int attempt, double* steal) {
    fixed_rate.RunBlocks(kBlocksPerProbe);
    ServerProcess fresh;
    if (!StartServer(setup.server, &fresh)) {
      tally.Expect(false, "probe server did not start");
      return false;
    }
    setups.push_back(fresh.setup_seconds());
    const auto phase = 1000 + 16 * static_cast<std::uint64_t>(rung) +
                       2 * static_cast<std::uint64_t>(attempt);
    const Schedule pre =
        schedules.Build(phase, spec.fixed_rps, kWarmShare * args.seconds);
    tally.Add("probe warm-up",
              Summarize(pre, schedules.payloads(),
                        RunPhase(pre, schedules.payloads(), fresh.port(),
                                 threads, false, 0)));
    const double rate = LadderRate(rung);
    const Schedule load =
        schedules.Build(phase + 1, rate, kProbeShare * args.seconds);
    const auto ticks0 = CpuTicks();
    const PhaseStats p = Summarize(
        load, schedules.payloads(),
        RunPhase(load, schedules.payloads(), fresh.port(), threads, false, 0));
    const auto ticks1 = CpuTicks();
    *steal = SafeRatio(static_cast<double>(ticks1.first - ticks0.first),
                       static_cast<double>(ticks1.second - ticks0.second));
    tally.Expect(fresh.Stop(), "probe server did not exit cleanly");
    const double p90 = Quantile(p.latency_us, 0.9);
    const bool pass =
        p.achieved_rps >= 0.95 * rate && p90 < kLatencyLimitUs;
    std::fprintf(stderr,
                 "  %9.0f rps: achieved %9.0f, p90 %10.0f us, send lag p99 "
                 "%7.0f us, steal %4.1f%%: %s\n",
                 rate, p.achieved_rps, p90, Quantile(p.send_lag_us, 0.99),
                 100 * *steal, pass ? "pass" : "fail");
    return pass;
  };
  int retries = 0;
  auto rung_holds = [&](int rung) {
    int failures = 0;
    for (int attempt = 0; failures < 2; ++attempt) {
      double steal = 0;
      if (probe(rung, attempt, &steal)) return true;
      if (steal > kCalmSteal && retries < kMaxDisturbedRetries) {
        ++retries;
      } else {
        ++failures;
      }
    }
    return false;
  };
  const int found =
      SearchCapacity(RungAtOrBelow(spec.search_from_rps), kCoarseRungs,
                     kMaxProbes, rung_holds);
  tally.Expect(found >= 0, "no ladder rate held the latency limit");

  const FixedPhase fixed = fixed_rate.Result();
  std::map<std::string, double> stats = server.Stats();
  CheckLayers(setup, stats, &tally);
  tally.Expect(server.Stop(), "server did not exit cleanly");

  const double max_rps = found >= 0 ? LadderRate(found) : 0;
  const double scale = kReferenceCalibrationNs / fixed.calibration_ns;
  std::fprintf(stderr,
               "as measured: setup_s %.6f, max_rps %.0f, p50_us %.1f, p90_us "
               "%.1f, benign_p90_us %.1f, cpu_us_per_req %.1f; speed scale "
               "%.4f\n",
               Median(setups), max_rps, fixed.p50_us, fixed.p90_us,
               fixed.benign_p90_us, fixed.cpu_us_per_req, scale);
  return Finish(args, setup, tally,
                {
                    {"setup_s", Median(setups) * scale, "s"},
                    {"max_rps", max_rps / scale, "1/s"},
                    {"p50_us", fixed.p50_us * scale, "us"},
                    {"p90_us", fixed.p90_us * scale, "us"},
                    {"benign_p90_us", fixed.benign_p90_us * scale, "us"},
                    {"cpu_us_per_req", fixed.cpu_us_per_req * scale, "us"},
                    {"peak_rss_mb", fixed.peak_rss_mb, "MB"},
                });
}

// --- --trace 1 ---------------------------------------------------------------

int RunTraced(const Args& args, const Setup& setup) {
  Tally tally;
  const gaa::http::DocTree tree = gaa::http::DocTree::DemoSite();

  // Untraced reference run of the same phase, for the tracing overhead.
  FixedPhase untraced;
  {
    ServerProcess server;
    if (!StartServer(setup.server, &server)) return 1;
    ScheduleBuilder schedules(setup.spec, args.seed, tree);
    untraced =
        FixedRate(server, schedules, setup, args.seconds, false, &tally)
            .Result();
    tally.Expect(server.Stop(), "server did not exit cleanly");
  }

  // Traced run: spans in the server and around every client round trip.
  const std::string server_spans = args.out_dir + "/server.spans.tsv";
  ServerConfig traced_config = setup.server;
  traced_config.traced = true;
  traced_config.spans_path = server_spans;
  ServerProcess server;
  if (!StartServer(traced_config, &server)) return 1;
  ScheduleBuilder schedules(setup.spec, args.seed, tree);
  const FixedPhase traced =
      FixedRate(server, schedules, setup, args.seconds, true, &tally).Result();
  std::map<std::string, double> stats = server.Stats();
  CheckLayers(setup, stats, &tally);
  tally.Expect(server.ProbeLayers(), "layer probe failed");
  tally.Expect(server.Stop(), "server did not exit cleanly");

  // Parse cost: ParseRequest over one block's request bytes, one thread.
  double parse_ns = 0;
  {
    const Schedule block = schedules.Build(1, setup.spec.fixed_rps,
                                         kFixedShare * args.seconds / kBlocks);
    std::size_t parsed = 0;
    std::size_t ok = 0;
    const std::int64_t t0 = MonoNs();
    while (MonoNs() - t0 < 200'000'000) {
      for (const Request& r : block.requests) {
        const Payload& payload = schedules.payloads()[r.payload];
        ok += gaa::http::ParseRequest(payload.bytes).ok();
        ++parsed;
      }
    }
    parse_ns = static_cast<double>(MonoNs() - t0) /
               static_cast<double>(std::max<std::size_t>(parsed, 1));
    if (ok > parsed) std::abort();  // keeps the parses observable
  }

  // Server and client spans of the measured blocks, into one file.
  std::vector<LoadedSpan> spans = ReadSpans(server_spans);
  std::remove(server_spans.c_str());
  {
    std::vector<LoadedSpan> client = SpanLog::Snapshot();
    const auto base = static_cast<std::int64_t>(spans.size());
    for (LoadedSpan& s : client) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(std::move(s));
    }
  }
  ComputeSelfTimes(&spans);
  const std::string spans_path = args.out_dir + "/" + setup.spec.name +
                                 "-seed" + std::to_string(args.seed) +
                                 ".spans.tsv";
  tally.Expect(WriteSpans(spans_path, spans), "cannot write " + spans_path);
  std::fprintf(stderr, "spans: %s (%zu)\n", spans_path.c_str(), spans.size());

  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::string, std::vector<double>> probe_us;  // layer probe calls
  std::vector<double> first_tenth;  // ids.report durations, by start time
  std::vector<double> last_tenth;
  const std::int64_t tenth = (traced.end_ns - traced.start_ns) / 10;
  for (const LoadedSpan& s : spans) {
    if (s.start_ns < traced.start_ns) continue;  // warm-up
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == "layer.probe") {
      probe_us[s.name].push_back(dur);
      continue;
    }
    duration_us[s.name].push_back(dur);
    self_us[s.name].push_back(static_cast<double>(s.self_ns) / 1e3);
    if (s.name != "ids.report") continue;
    if (s.start_ns < traced.start_ns + tenth) first_tenth.push_back(dur);
    if (s.start_ns >= traced.end_ns - tenth) last_tenth.push_back(dur);
  }
  // Report cost late vs early in the phase, as the alert window fills.
  const double growth = first_tenth.size() >= 10 && last_tenth.size() >= 10
                            ? Median(last_tenth) / Median(first_tenth)
                            : 1.0;
  auto q = [&duration_us](const char* name, double quantile) {
    return Quantile(duration_us[name], quantile);
  };
  // A layer the phase barely reached is timed on the layer probe's calls.
  auto layer_q = [&](const char* name, double quantile) {
    const std::vector<double>& in_phase = duration_us[name];
    return Quantile(in_phase.size() >= 20 ? in_phase : probe_us[name],
                    quantile);
  };
  const double memo_lookups = stats["gaa.memo_hits"] + stats["gaa.memo_misses"];
  const PhaseStats& u = untraced.pooled;
  return Finish(
      args, setup, tally,
      {
          {"loadgen.send_lag_p99_us", Quantile(u.send_lag_us, 0.99), "us"},
          {"loadgen.p99_us", Quantile(u.latency_us, 0.99), "us"},
          {"loadgen.reconnects", static_cast<double>(u.connections), "count"},
          {"transport.requests", stats["transport.requests"], "count"},
          {"transport.inline_ratio",
           SafeRatio(stats["transport.inline_served"],
                     stats["transport.requests"]),
           "ratio"},
          {"transport.ring_hwm", stats["transport.ring_hwm"], "count"},
          {"transport.dispatch_delay_p90_us",
           stats["transport.dispatch_delay_p90_us"], "us"},
          {"transport.accepted", stats["transport.accepted"], "count"},
          {"transport.rejected", stats["transport.rejected"], "count"},
          {"http.pipeline_p50_us", stats["http.pipeline_p50_us"], "us"},
          {"http.pipeline_p90_us", stats["http.pipeline_p90_us"], "us"},
          {"http.parse_ns", parse_ns, "ns"},
          {"gaa.check_p50_us", q("gaa.check", 0.5), "us"},
          {"gaa.check_self_us", Quantile(self_us["gaa.check"], 0.5), "us"},
          {"gaa.memo_lookups", memo_lookups, "count"},
          {"gaa.memo_hit_ratio", SafeRatio(stats["gaa.memo_hits"], memo_lookups),
           "ratio"},
          {"gaa.cond_eval_p90_us", stats["gaa.cond_eval_p90_us"], "us"},
          {"ids.observe_p50_us", q("ids.observe", 0.5), "us"},
          {"ids.report_count", stats["ids.report_count"], "count"},
          {"ids.report_p50_us", layer_q("ids.report", 0.5), "us"},
          {"ids.report_p99_us", layer_q("ids.report", 0.99), "us"},
          {"ids.report_growth", growth, "ratio"},
          {"ids.stream_flagged", stats["ids.stream_flagged"], "count"},
          {"ids.threat_transitions", stats["ids.threat_transitions"], "count"},
          {"audit.record_count", stats["audit.records"], "count"},
          {"audit.record_p99_us", layer_q("audit.record", 0.99), "us"},
          {"audit.dropped", stats["audit.dropped"], "count"},
          {"client.round_trip_p50_us", q("client.request", 0.5), "us"},
          {"trace_overhead", SafeRatio(traced.p50_us, untraced.p50_us),
           "ratio"},
      });
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--commit ID] | --selftest\n");
    return 2;
  }
  Setup setup;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  setup.nproc = online > 0 ? static_cast<std::size_t>(online) : 1;
  setup.ticks_at_start = CpuTicks();
  const std::size_t half = std::max<std::size_t>(1, setup.nproc / 2);
  setup.generator_threads = half;
  setup.server.shards = half;
  setup.server.workers = half;

  if (args.selftest) {
    std::string log;
    const bool ok = RunSelfTests(setup.nproc, &log);
    std::fputs(log.c_str(), stdout);
    return ok ? 0 : 1;
  }
  if (!FindWorkload(args.workload, setup.nproc, &setup.spec)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  setup.server.workload = setup.spec.workload;
  if (setup.spec.workload != Workload::kStaticGet) {
    setup.server.audit_path = args.out_dir + "/audit.jsonl";
  }
  const int rc = args.trace != 0 ? RunTraced(args, setup)
                                 : RunEndToEnd(args, setup);
  if (!setup.server.audit_path.empty()) {
    std::remove(setup.server.audit_path.c_str());
    for (int i = 1; i <= 3; ++i) {
      std::remove((setup.server.audit_path + "." + std::to_string(i)).c_str());
    }
  }
  return rc;
}
