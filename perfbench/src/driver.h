// The open-loop driver: sends every scheduled request at its due time and
// checks every response.
//
// Each generator thread owns some keep-alive lanes and some one-shot
// requests and runs one epoll loop over their connections.  A request is
// written when it is due even if earlier responses on its connection are
// still outstanding (HTTP/1.1 pipelining), so a slow server never slows the
// offered load.  Latency runs from the due time to the last response byte;
// the send lag (how late the generator wrote) is kept separately.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Outcome {
  std::int64_t sent_ns = -1;  ///< offset from the phase start
  std::int64_t done_ns = -1;  ///< response complete; -1 = none
  int status = 0;
  bool ok = false;            ///< passed its kind's response check
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  ///< parallel to Schedule::requests
  std::int64_t epoch_ns = 0;      ///< MonoNs() of the phase start
  std::uint64_t connections = 0;  ///< connections the generator opened
};

/// Whether a response satisfies the request's kind: a benign request gets a
/// 2xx with exactly the document bytes; an attack never gets a 2xx and gets
/// a 4xx.  (Slowloris gets no response at all; the driver checks that.)
bool ResponseOk(const Payload& payload, int status, std::string_view body);

/// Runs one phase against 127.0.0.1:port with `threads` generator threads.
/// With `spans`, records one `client.request` span per answered request,
/// its request id being `span_base` + the request's index.
PhaseResult RunPhase(const Schedule& schedule,
                     const std::vector<Payload>& payloads, std::uint16_t port,
                     std::size_t threads, bool spans, std::uint64_t span_base);

}  // namespace perfbench
