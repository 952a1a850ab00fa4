// Request context and evaluation services passed to condition routines.
//
// The integration glue (paper §6, step 2b) extracts everything the condition
// routines may need from the application's request structure (Apache's
// request_rec in the paper; our http::RequestRec) and packages it here.
// Parameters are classified with a type and an authority "so that GAA-API
// routines that evaluate conditions with the same type and authority could
// find the relevant parameters".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/ip.h"

namespace gaa::telemetry {
class RequestTrace;
}  // namespace gaa::telemetry

namespace gaa::core {

struct CondTrace;

/// A typed, authority-tagged parameter attached to a requested right.
struct Param {
  std::string type;       ///< e.g. "client_ip", "url", "cgi_input_length"
  std::string authority;  ///< namespace of the type, e.g. "local", "apache"
  std::string value;
};

/// Runtime statistics of the operation being executed; consumed by
/// mid-conditions (execution-control phase) and post-conditions.
struct OperationStats {
  double cpu_seconds = 0.0;          ///< CPU consumed by the operation so far
  util::DurationUs wall_us = 0;      ///< wall time elapsed
  std::uint64_t bytes_written = 0;   ///< response bytes produced
  std::uint64_t memory_bytes = 0;    ///< peak memory attributed to the op
  std::vector<std::string> files_created;  ///< suspicious-behaviour signal
  bool completed = false;
  bool succeeded = false;
};

/// Everything condition routines can see about one access request.
struct RequestContext {
  // --- identity -----------------------------------------------------------
  bool authenticated = false;
  std::string user;                    ///< empty when unauthenticated
  std::vector<std::string> groups;     ///< groups asserted by authentication

  // --- connection ---------------------------------------------------------
  util::Ipv4Address client_ip;
  std::uint16_t client_port = 0;

  // --- request ------------------------------------------------------------
  std::string application;  ///< defining authority of the right ("apache")
  std::string operation;    ///< requested right value ("GET", "POST", ...)
  std::string object;       ///< URL path of the protected object
  std::string query;        ///< raw query string (CGI input)
  std::string raw_url;      ///< undecoded request target (signature matching)

  /// Policy namespace resolved from the request's Host header (DESIGN.md
  /// §14).  "" is the default namespace — the single-tenant behaviour —
  /// so every pre-tenant caller keeps its exact semantics.
  std::string tenant;

  // --- extension parameters (paper §6 step 2b) ----------------------------
  std::vector<Param> params;

  // --- runtime (filled during/after execution) ----------------------------
  OperationStats stats;

  /// Set by the evaluation engine immediately before request-result
  /// conditions run, so `on:success` / `on:failure` triggers can tell
  /// whether the authorization request was granted.
  std::optional<bool> request_granted;

  /// Telemetry trace of the enclosing HTTP request (null when tracing is
  /// off).  Condition phases record spans through it; audit records use its
  /// id for correlation.
  telemetry::RequestTrace* trace = nullptr;

  /// Condition-by-condition evaluation record, appended to by both engines
  /// and by phases 3/4 when non-null (policy_tools explain, tests).  A memo
  /// hit evaluates nothing and so appends nothing.  Null on the serving
  /// path: a decision is its answer, not the record of how it was reached.
  std::vector<CondTrace>* explain = nullptr;

  /// First parameter matching type (+ authority unless "*").
  const Param* FindParam(std::string_view type,
                         std::string_view authority = "*") const;
  void AddParam(std::string type, std::string authority, std::string value);

  /// True if `name` is the user or one of the groups.
  bool InGroup(std::string_view name) const;
};

/// The requested right, paired with the context: §6 step 2b builds a "list
/// of requested rights" from the HTTP request.
struct RequestedRight {
  std::string def_auth;  ///< application namespace, e.g. "apache"
  std::string value;     ///< operation, e.g. "GET"
};

}  // namespace gaa::core
