#include "workloads.h"

#include <cmath>
#include <cstdint>

#include "http/request.h"
#include "util/rng.h"

namespace perfbench {

namespace wl = gaa::workload;

namespace {

/// SplitMix-style stream separation: one independent generator per
/// (seed, phase, stream) triple.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t phase,
                         std::uint64_t stream) {
  gaa::util::Rng rng(seed * 0x100000001b3ULL ^ (phase << 8) ^ stream);
  return rng.Next();
}

wl::LoadScenario ScenarioFor(Workload workload) {
  switch (workload) {
    case Workload::kStaticGet:
      return wl::LoadScenario{"static_get", {{wl::RequestKind::kStaticPage, 1}}};
    case Workload::kMixed:
      return wl::MixedScenario();
  }
  return {};
}

}  // namespace

bool FindWorkload(const std::string& name, std::size_t nproc,
                  WorkloadSpec* out) {
  const std::size_t lanes = nproc < 1 ? 1 : nproc;
  // The rates were chosen on a 4-core host.  The fixed rate sits at a ninth
  // to a tenth of the knee: at a sixth to a quarter, worker queueing
  // amplified the host's speed drift into the p90 (over five seeds its
  // spread was 1.6-1.9 times larger).  The search starts two to three
  // coarse steps below the knee.
  if (name == "static_get") {
    *out = {Workload::kStaticGet, "static_get", 1500, 6000, lanes};
  } else if (name == "mixed") {
    *out = {Workload::kMixed, "mixed", 5000, 16000, lanes};
  } else {
    return false;
  }
  return true;
}

std::uint32_t BenignAddress(std::size_t index) {
  // 127.100.0.1 upwards, skipping .0 and .255 host bytes.
  const std::size_t i = index % kClientPoolSize;
  const std::uint32_t host = static_cast<std::uint32_t>(1 + i % 254);
  const std::uint32_t rest = static_cast<std::uint32_t>(i / 254);
  return (127u << 24) | ((100u + rest / 256) << 16) | ((rest % 256) << 8) |
         host;
}

std::uint32_t AttackerAddress(std::size_t index) {
  return (127u << 24) | (66u << 16) | (6u << 8) |
         static_cast<std::uint32_t>(1 + index % kAttackers);
}

ScheduleBuilder::ScheduleBuilder(const WorkloadSpec& spec, std::uint64_t seed,
                                 const gaa::http::DocTree& tree)
    : spec_(spec), seed_(seed), tree_(tree), scenario_(ScenarioFor(spec.workload)) {}

std::uint32_t ScheduleBuilder::Intern(const wl::TraceRequest& request) {
  auto it = index_.find(request.raw);
  if (it != index_.end()) return it->second;
  Payload p;
  p.kind = request.kind;
  p.bytes = request.raw;
  p.benign = !wl::IsAttackKind(request.kind);
  p.partial = wl::IsPartialRequestKind(request.kind);
  if (p.benign) {
    gaa::http::ParseResult parsed = gaa::http::ParseRequest(p.bytes);
    if (parsed.ok()) {
      const gaa::http::RequestRec& rec = *parsed.request;
      if (const gaa::http::Document* doc = tree_.FindDocument(rec.path)) {
        p.expected_body = doc->content;
      } else if (const gaa::http::CgiScript* cgi = tree_.FindCgi(rec.path)) {
        p.expected_body = (*cgi)(rec.query).output;
      }
    }
  }
  const auto id = static_cast<std::uint32_t>(payloads_.size());
  payloads_.push_back(std::move(p));
  index_.emplace(request.raw, id);
  return id;
}

Schedule ScheduleBuilder::Build(std::uint64_t phase_id, double rate_rps,
                                double seconds) {
  gaa::util::Rng arrivals(StreamSeed(seed_, phase_id, 1));
  gaa::util::Rng mix(StreamSeed(seed_, phase_id, 2));
  gaa::util::Rng attacker(StreamSeed(seed_, phase_id, 3));
  wl::TraceOptions trace;
  trace.seed = StreamSeed(seed_, phase_id, 4);
  wl::TraceGenerator generator(trace);

  double total_weight = 0;
  for (const auto& [kind, weight] : scenario_.mix) total_weight += weight;

  Schedule schedule;
  schedule.lanes = spec_.lanes;
  schedule.seconds = seconds;
  std::vector<std::size_t> lane_sent(spec_.lanes, 0);
  std::vector<std::uint32_t> lane_source(spec_.lanes, 0);
  std::vector<std::size_t> lane_last(spec_.lanes, SIZE_MAX);
  std::size_t benign_seen = 0;

  const double mean_gap_ns = 1e9 / rate_rps;
  const double end_ns = seconds * 1e9;
  double cursor_ns = 0;
  for (;;) {
    double u = arrivals.NextDouble();
    if (u < 1e-12) u = 1e-12;
    cursor_ns += -std::log(u) * mean_gap_ns;
    if (cursor_ns >= end_ns) break;

    double pick = mix.NextDouble() * total_weight;
    wl::RequestKind kind = scenario_.mix.back().first;
    for (const auto& [candidate, weight] : scenario_.mix) {
      if (pick < weight) {
        kind = candidate;
        break;
      }
      pick -= weight;
    }

    Request r;
    r.due_ns = static_cast<std::int64_t>(cursor_ns);
    r.payload = Intern(generator.Make(kind));
    const Payload& payload = payloads_[r.payload];
    std::uint32_t lane = kOneShot;
    if (payload.benign) {
      lane = static_cast<std::uint32_t>(benign_seen++ % spec_.lanes);
      if (lane_sent[lane] % kSessionLength == 0) {
        lane_source[lane] = BenignAddress(next_address_++);
      }
      r.source = lane_source[lane];
    } else {
      // Each attack is a hit-and-run connection of its own.
      r.source = AttackerAddress(attacker.NextBelow(kAttackers));
    }
    if (lane != kOneShot) {
      r.lane = lane;
      r.session_end =
          lane_sent[lane] % kSessionLength == kSessionLength - 1;
      ++lane_sent[lane];
      lane_last[lane] = schedule.requests.size();
    }
    schedule.requests.push_back(r);
  }
  // No session outlives its phase.
  for (std::size_t last : lane_last) {
    if (last != SIZE_MAX) schedule.requests[last].session_end = true;
  }
  return schedule;
}

double LadderRate(int rung) {
  return kLadderBaseRps *
         std::pow(2.0, static_cast<double>(rung) / kRungsPerOctave);
}

int RungAtOrBelow(double rate_rps) {
  if (rate_rps <= kLadderBaseRps) return 0;
  int rung = static_cast<int>(
      std::floor(std::log2(rate_rps / kLadderBaseRps) * kRungsPerOctave));
  while (rung > 0 && LadderRate(rung) > rate_rps * (1 + 1e-9)) --rung;
  while (LadderRate(rung + 1) <= rate_rps * (1 + 1e-9)) ++rung;
  return rung;
}

}  // namespace perfbench
