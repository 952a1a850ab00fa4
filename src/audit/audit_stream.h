// The structured audit stream: JSONL records, size-rotated files, and the
// asynchronous writer that keeps audit disk I/O off request threads.
//
// PR 3 replaces the old synchronous file mirror (an ofstream append while
// holding AuditLog::mu_) with this pipeline:
//
//   request thread ──AuditLog::Record──► bounded MPSC queue ──► drain thread
//                      (never blocks)                            │ format JSONL
//                                                                ▼
//                                                        AuditStreamSink
//                                                  (rotating file + fsync policy)
//
// Backpressure is explicit: when the queue is full the record is *dropped*
// and counted (`audit_stream_dropped_total`), never allowed to stall a
// request.  Each JSONL line carries timestamp, category, message, trace id,
// client, decision and the deciding policy entry, and parses back via
// ParseAuditJsonl for replay-after-restart.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_log.h"
#include "util/status.h"

namespace gaa::telemetry {
class Counter;
class Gauge;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::audit {

/// Render one record as a single JSONL line (no trailing newline).  Empty
/// string fields and negative entry indexes are omitted.
std::string FormatAuditJsonl(const AuditRecord& record);

/// Append-style variant for hot loops: reuses `out`'s capacity instead of
/// allocating a fresh string per record.
void AppendAuditJsonl(const AuditRecord& record, std::string* out);

/// Parse JSONL text (one object per line) back into records — the
/// replay-after-restart path.  Unknown keys are ignored; a malformed line
/// fails the whole parse with its line number.
util::Result<std::vector<AuditRecord>> ParseAuditJsonl(std::string_view text);

/// Where the drain thread sends finished JSONL lines.  Implementations may
/// block (that is the point of the queue in front of them).
class AuditStreamSink {
 public:
  virtual ~AuditStreamSink() = default;
  /// Append one line (newline included by the caller).  False = error.
  virtual bool Write(const std::string& line) = 0;
  /// Force durability (fsync or equivalent).  Default no-op.
  virtual void Sync() {}
};

/// Size-rotated append-only file sink.  When the current file would exceed
/// `rotate_bytes` the sink shifts path.N-1 → path.N (oldest dropped) and
/// reopens `path` fresh, so the newest records are always in `path`.
class RotatingFileSink final : public AuditStreamSink {
 public:
  struct Options {
    std::size_t rotate_bytes = 8 * 1024 * 1024;  ///< 0 = never rotate
    int max_rotated_files = 3;                   ///< path.1 .. path.N kept
    bool fsync_each_write = false;               ///< durability over throughput
  };

  explicit RotatingFileSink(std::string path);
  RotatingFileSink(std::string path, Options options);
  ~RotatingFileSink() override;

  bool Write(const std::string& line) override;
  void Sync() override;

  std::size_t rotations() const { return rotations_; }

 private:
  bool EnsureOpen();
  void Rotate();

  std::string path_;
  Options options_;
  std::FILE* file_ = nullptr;
  std::size_t current_bytes_ = 0;
  std::size_t rotations_ = 0;
};

/// Bounded MPSC queue drained by a dedicated thread.  Offer() is the only
/// producer entry point and never touches the sink: it either enqueues
/// (holding the queue mutex for a push) or drops and counts.  The drain
/// thread pops batches under the lock and formats + writes with the lock
/// released, so a stalled sink back-pressures into drops, not into request
/// latency.
class AsyncAuditWriter {
 public:
  struct Options {
    std::size_t queue_capacity = 4096;
    /// Sync() the sink every N written records (0 = only at Flush/Stop —
    /// the "leave it to the page cache" policy).
    std::size_t sync_every = 0;
  };

  explicit AsyncAuditWriter(std::unique_ptr<AuditStreamSink> sink);
  AsyncAuditWriter(std::unique_ptr<AuditStreamSink> sink, Options options,
                   telemetry::MetricRegistry* registry = nullptr);
  ~AsyncAuditWriter();

  AsyncAuditWriter(const AsyncAuditWriter&) = delete;
  AsyncAuditWriter& operator=(const AsyncAuditWriter&) = delete;

  /// Non-blocking hand-off.  Returns false when the queue was full and the
  /// record was dropped (counted in dropped() / the registry).
  bool Offer(AuditRecord record);

  /// Block until everything offered so far is written and synced (tests,
  /// shutdown).  Unlike Offer this *does* wait on the sink.
  void Flush();

  /// Stop the drain thread after flushing the queue.  Idempotent; the
  /// destructor calls it.
  void Stop();

  std::uint64_t written() const;
  std::uint64_t dropped() const;
  std::uint64_t write_errors() const;
  std::size_t queue_depth() const;

 private:
  void DrainLoop();

  std::unique_ptr<AuditStreamSink> sink_;
  Options options_;

  telemetry::Counter* written_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Counter* error_counter_ = nullptr;
  telemetry::Gauge* depth_gauge_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;          ///< producer → drain thread
  std::condition_variable drained_cv_;  ///< drain thread → Flush()
  /// A vector, not a deque: the drain thread swaps the whole batch out and
  /// hands its (cleared) buffer back next round, so after warm-up neither
  /// side allocates queue storage on the hot path.
  std::vector<AuditRecord> queue_;
  std::size_t in_flight_ = 0;  ///< records popped but not yet written
  std::uint64_t next_seq_ = 0;  ///< last AuditRecord::seq stamped at Offer()
  std::uint64_t written_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t write_errors_ = 0;
  bool stop_ = false;
  /// True while the drain thread is parked in an untimed wait.  While the
  /// stream is busy the drain thread self-paces on a short timed wait and
  /// producers skip cv_ notification entirely — a futex wake per record
  /// would put a syscall on the request hot path.
  bool drain_parked_ = false;
  std::thread drain_;
};

}  // namespace gaa::audit
