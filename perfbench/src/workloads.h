// Workload definitions and open-loop schedules for the repository benchmark.
//
// A schedule is every request of one measurement phase, fixed before the
// phase starts: its due time (Poisson arrivals), its bytes (built by
// workload::TraceGenerator::Make), the 127/8 source address it leaves from
// and the connection lane that carries it.  Benign traffic comes from a
// client population: each lane runs short keep-alive sessions, and every
// session takes the next address of a large pool, so no benign address
// comes near the stream detector's per-client rate threshold.  Attack
// traffic leaves from four fixed attacker addresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/doc_tree.h"
#include "workload/loadgen.h"
#include "workload/trace.h"

namespace perfbench {

enum class Workload { kStaticGet, kMixed };

/// Fixed per-workload settings, recorded with every result.
struct WorkloadSpec {
  Workload workload;
  const char* name;
  /// Offered rate of the fixed-rate phase.
  double fixed_rps;
  /// First ladder rate the capacity search probes.
  double search_from_rps;
  /// Keep-alive lanes (concurrent persistent connections).
  std::size_t lanes;
};

/// p90 limit of the capacity search; failed requests count as over it.
/// It lies above every pre-knee p90 of both workloads on a 4-core host.
constexpr double kLatencyLimitUs = 10000;
/// Requests per keep-alive session on a lane, each session from a new
/// client address.  An assumption, not a measured figure: README.md gives
/// the metrics' sensitivity to it.
constexpr std::size_t kSessionLength = 16;

/// Resolves a workload name; false when the name is unknown.
bool FindWorkload(const std::string& name, std::size_t nproc,
                  WorkloadSpec* out);

/// Distinct benign source addresses (127.100.0.1 upwards).
constexpr std::size_t kClientPoolSize = 200000;
constexpr std::size_t kAttackers = 4;
std::uint32_t BenignAddress(std::size_t index);
std::uint32_t AttackerAddress(std::size_t index);

/// Lane value of a request that uses a connection of its own.
constexpr std::uint32_t kOneShot = 0xffffffffu;

/// One distinct request text and what its response must look like.
struct Payload {
  gaa::workload::RequestKind kind = gaa::workload::RequestKind::kStaticPage;
  std::string bytes;
  bool benign = false;
  /// A deliberately unfinished request (slowloris): sent, then watched for
  /// a short window in which no response may arrive, then closed.
  bool partial = false;
  std::string expected_body;  ///< benign only: exact DocTree bytes
};

struct Request {
  std::int64_t due_ns = 0;   ///< offset from the phase start
  std::uint32_t payload = 0; ///< index into ScheduleBuilder::payloads()
  std::uint32_t source = 0;  ///< IPv4, host order
  std::uint32_t lane = kOneShot;
  /// Last request of its lane session: the lane opens a new connection for
  /// its next request.
  bool session_end = false;
};

struct Schedule {
  std::vector<Request> requests;  ///< sorted by due time
  std::size_t lanes = 0;
  double seconds = 0;
};

/// Builds phase schedules.  A phase's arrivals and request bytes are a pure
/// function of (workload, seed, phase id); only the client addresses carry
/// on from one phase to the next, so successive phases never reuse a
/// session's address until the whole pool has been used.
class ScheduleBuilder {
 public:
  ScheduleBuilder(const WorkloadSpec& spec, std::uint64_t seed,
                  const gaa::http::DocTree& tree);

  Schedule Build(std::uint64_t phase_id, double rate_rps, double seconds);

  const std::vector<Payload>& payloads() const { return payloads_; }

 private:
  std::uint32_t Intern(const gaa::workload::TraceRequest& request);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  const gaa::http::DocTree& tree_;
  gaa::workload::LoadScenario scenario_;
  std::vector<Payload> payloads_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::size_t next_address_ = 0;
};

// --- capacity search -----------------------------------------------------

/// Rung k of the fixed geometric ladder: base * 2^(k / kRungsPerOctave).
constexpr double kLadderBaseRps = 1000.0;
constexpr int kRungsPerOctave = 32;
double LadderRate(int rung);
/// Highest rung whose rate is <= rate_rps.
int RungAtOrBelow(double rate_rps);

/// The ladder search: from `start_rung`, steps of `coarse` rungs (up while
/// probes pass, down while they fail) until one pass and one fail bracket
/// the knee, then bisection of the bracket.  `probe(rung)` runs (or
/// simulates) one probe.  Returns the highest passing rung found; -1 when
/// nothing down to rung 0 passed.  At most `max_probes` probes run.
template <typename ProbeFn>
int SearchCapacity(int start_rung, int coarse, int max_probes, ProbeFn probe) {
  int pass = -1;
  int fail = -1;
  int rung = start_rung;
  int probes = 0;
  while ((pass < 0 || fail < 0) && probes < max_probes && rung >= 0) {
    ++probes;
    if (probe(rung)) {
      pass = rung;
      if (fail >= 0) break;
      rung += coarse;
    } else {
      fail = rung;
      if (pass >= 0) break;
      rung -= coarse;
    }
  }
  if (pass < 0 || fail < 0) return pass;
  while (fail - pass > 1 && probes < max_probes) {
    ++probes;
    const int mid = pass + (fail - pass) / 2;
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass;
}

}  // namespace perfbench
