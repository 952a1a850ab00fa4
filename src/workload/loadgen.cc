#include "workload/loadgen.h"

namespace gaa::workload {

LoadScenario MixedScenario() {
  LoadScenario out{"mixed",
                   {{RequestKind::kStaticPage, 0.63},
                    {RequestKind::kSearchCgi, 0.18},
                    {RequestKind::kPrivatePage, 0.09}}};
  // The remaining 10% spreads over the full attack corpus.
  const RequestKind attacks[] = {
      RequestKind::kCgiProbe,       RequestKind::kDosSlashes,
      RequestKind::kNimdaPercent,   RequestKind::kOverflowInput,
      RequestKind::kIllFormed,      RequestKind::kSlowHeaders,
      RequestKind::kSmugglingProbe, RequestKind::kPathTraversal,
      RequestKind::kHeaderFlood,    RequestKind::kCachePoison};
  for (RequestKind kind : attacks) out.mix.emplace_back(kind, 0.01);
  return out;
}

}  // namespace gaa::workload
