// The server under test, in a forked process of its own.
//
// The child builds a web::GaaWebServer with the workload's policy, puts an
// http::TcpServer in front of it, reports its port once the listener is
// ready and then serves until the parent tells it to quit.  In a traced run
// the child records spans around its calls into each layer's public
// interface: a forwarding access controller around the GAA controller, IDS
// channel and audit sink decorators installed through GaaApi::services(),
// and timed request-observer / malformed-request hooks.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

struct ServerConfig {
  Workload workload = Workload::kStaticGet;
  bool traced = false;
  std::size_t shards = 2;
  std::size_t workers = 2;
  std::string audit_path;  ///< JSONL audit stream ("" = none)
  std::string spans_path;  ///< traced runs write their spans here on exit
};

/// Entries in the system-wide deny list of the static_get policy.
constexpr int kDenyListEntries = 300;
/// Calls per layer made by ServerProcess::ProbeLayers.
constexpr int kLayerProbeCalls = 200;

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks the server and waits until its listener is ready.  The parent
  /// must be single-threaded when it calls this.
  bool Start(const ServerConfig& config, std::string* error);

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Fork to ready listener, in seconds.
  double setup_seconds() const { return setup_s_; }

  /// Zeroes the server's metric registry and transport counter baseline, so
  /// the next Stats() covers only what happens from now on.
  bool ResetCounters();
  /// The server's layer counters and histogram quantiles.
  std::map<std::string, double> Stats();
  /// Traced servers only: kLayerProbeCalls direct IDS reports and audit
  /// records through the traced seams, each under a `layer.probe` span.
  bool ProbeLayers();

  /// CPU time of every thread of the server process so far.
  std::int64_t CpuNs() const;
  /// VmHWM of the server process.
  double PeakRssMb() const;

  /// Tells the server to drain and exit, then reaps it.  True when it
  /// exited cleanly.
  bool Stop();

 private:
  bool Command(const std::string& command, std::string* reply);

  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int reply_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
};

}  // namespace perfbench
