// Self-tests of the generator: schedule determinism, the per-address rate
// of the client population, and the capacity search on a synthetic curve.
#include "selftest.h"

#include <algorithm>
#include <map>

#include "http/doc_tree.h"

namespace perfbench {

namespace {

bool SameSchedule(const Schedule& a, const Schedule& b,
                  const std::vector<Payload>& pa,
                  const std::vector<Payload>& pb) {
  if (a.requests.size() != b.requests.size()) return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const Request& x = a.requests[i];
    const Request& y = b.requests[i];
    if (x.due_ns != y.due_ns || x.source != y.source || x.lane != y.lane ||
        x.session_end != y.session_end ||
        pa[x.payload].bytes != pb[y.payload].bytes) {
      return false;
    }
  }
  return true;
}

bool Check(bool ok, const std::string& what, std::string* log) {
  *log += (ok ? "ok    " : "FAIL  ") + what + "\n";
  return ok;
}

}  // namespace

bool RunSelfTests(std::size_t nproc, std::string* log) {
  const gaa::http::DocTree tree = gaa::http::DocTree::DemoSite();
  bool all = true;
  for (const char* name : {"static_get", "mixed"}) {
    WorkloadSpec spec;
    FindWorkload(name, nproc, &spec);
    const std::string w = name;

    // The schedule is a pure function of (workload, seed) ...
    ScheduleBuilder a(spec, 7, tree);
    ScheduleBuilder b(spec, 7, tree);
    ScheduleBuilder c(spec, 8, tree);
    const Schedule sa = a.Build(1, spec.fixed_rps, 1.0);
    const Schedule sb = b.Build(1, spec.fixed_rps, 1.0);
    const Schedule sc = c.Build(1, spec.fixed_rps, 1.0);
    all &= Check(!sa.requests.empty() &&
                     SameSchedule(sa, sb, a.payloads(), b.payloads()),
                 w + ": same seed, same schedule", log);
    // ... and differs across seeds.
    all &= Check(!SameSchedule(sa, sc, a.payloads(), c.payloads()),
                 w + ": another seed, another schedule", log);

    // At the fixed rate no benign address sends more than 300 requests in
    // any 60 s (the stream detector's per-client threshold).
    ScheduleBuilder minute(spec, 7, tree);
    const Schedule s = minute.Build(1, spec.fixed_rps, 60.0);
    std::map<std::uint32_t, std::size_t> per_address;
    std::size_t most = 0;
    for (const Request& r : s.requests) {
      if (!minute.payloads()[r.payload].benign) continue;
      most = std::max(most, ++per_address[r.source]);
    }
    all &= Check(most <= 300, w + ": busiest benign address sends " +
                                  std::to_string(most) + " requests in 60 s",
                 log);
  }

  // The capacity search finds the knee of a synthetic curve: probes pass
  // exactly up to a known capacity, from below and from above the knee.
  for (double capacity : {3100.0, 17345.0, 52000.0}) {
    for (int start : {0, 40, 200}) {
      int probes = 0;
      const int found = SearchCapacity(start, 16, 64, [&](int rung) {
        ++probes;
        return LadderRate(rung) <= capacity;
      });
      all &= Check(found == RungAtOrBelow(capacity),
                   "knee at " + std::to_string(capacity) + " rps from rung " +
                       std::to_string(start) + " found in " +
                       std::to_string(probes) + " probes",
                   log);
    }
  }
  return all;
}

}  // namespace perfbench
