// Span recording for the traced benchmark run.
//
// A span is one timed call into a layer's public interface: name, start,
// end (CLOCK_MONOTONIC nanoseconds, comparable across the generator and
// server processes), the span that encloses it on the same thread, and the
// request it belongs to.  Spans stay in per-thread memory while the run
// measures and are written out when the process exits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t MonoNs();

/// A span as written to and read from a span file.
struct LoadedSpan {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< position of the parent span, -1 = root
  std::uint64_t request = 0;
  std::int64_t self_ns = 0;  ///< duration minus direct children
};

/// Process-wide span log.  Begin/End nest per thread; Add records a span
/// that was timed elsewhere (the generator's round trips, which overlap).
class SpanLog {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Opens a span on this thread.  A root span takes `request`; a nested
  /// one inherits its parent's request.  Returns the span's handle.
  static std::int32_t Begin(const char* name, std::uint64_t request);
  static void End(std::int32_t handle);
  /// Request id of the innermost open span on this thread (0 = none).
  static std::uint64_t CurrentRequest();
  static void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::uint64_t request);

  /// Every span recorded so far, one thread after another.
  static std::vector<LoadedSpan> Snapshot();
};

/// RAII span; inert when the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0)
      : handle_(SpanLog::enabled() ? SpanLog::Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) SpanLog::End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t handle_;
};

/// Writes `id name start_ns end_ns parent request` lines, the id being the
/// position in `spans`.  Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<LoadedSpan>& spans);

/// Loads a file written by WriteSpans (self times left at 0).
std::vector<LoadedSpan> ReadSpans(const std::string& path);

/// Fills in self_ns: each span's duration minus its direct children's.
void ComputeSelfTimes(std::vector<LoadedSpan>* spans);

}  // namespace perfbench
