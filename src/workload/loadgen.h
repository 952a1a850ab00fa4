// Weighted request mixes over the workload::RequestKind corpus.
//
// A LoadScenario says which kinds a load driver sends and in what
// proportion.  MixedScenario() is the paper's scenario: benign users
// (static pages, search CGI, authenticated /private) carry 90% of the
// weight and the remaining 10% spreads over the full attack corpus.  The
// repository benchmark's `mixed` workload (perfbench/) draws its requests
// from it, and integration_attack_corpus_test checks that every kind it
// names is classified exactly.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workload/trace.h"

namespace gaa::workload {

/// A weighted mix of request kinds.
struct LoadScenario {
  std::string name;
  std::vector<std::pair<RequestKind, double>> mix;  ///< kind -> weight
};

/// 90% benign, 10% across all attacks.
LoadScenario MixedScenario();

}  // namespace gaa::workload
