#include "audit/audit_stream.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "telemetry/metrics.h"
#include "util/strings.h"

namespace gaa::audit {

namespace {

void AppendStringField(const char* key, std::string_view value, bool* first,
                       std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":\"");
  util::AppendJsonEscaped(value, out);
  out->push_back('"');
}

void AppendIntField(const char* key, long long value, bool* first,
                    std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

}  // namespace

void AppendAuditJsonl(const AuditRecord& record, std::string* out) {
  out->push_back('{');
  bool first = true;
  AppendIntField("ts_us", static_cast<long long>(record.time_us), &first, out);
  if (record.seq != 0) {
    AppendIntField("seq", static_cast<long long>(record.seq), &first, out);
  }
  AppendStringField("category", record.category, &first, out);
  AppendStringField("message", record.message, &first, out);
  if (record.trace_id != 0) {
    AppendIntField("trace_id", static_cast<long long>(record.trace_id), &first,
                   out);
  }
  if (!record.client.empty()) {
    AppendStringField("client", record.client, &first, out);
  }
  if (!record.tenant.empty()) {
    AppendStringField("tenant", record.tenant, &first, out);
  }
  if (!record.decision.empty()) {
    AppendStringField("decision", record.decision, &first, out);
  }
  if (!record.policy.empty()) {
    AppendStringField("policy", record.policy, &first, out);
  }
  if (record.entry >= 0) AppendIntField("entry", record.entry, &first, out);
  if (!record.condition.empty()) {
    AppendStringField("condition", record.condition, &first, out);
  }
  out->push_back('}');
}

std::string FormatAuditJsonl(const AuditRecord& record) {
  std::string out;
  out.reserve(96 + record.category.size() + record.message.size());
  AppendAuditJsonl(record, &out);
  return out;
}

namespace {

// Minimal parser for the exact flat-object shape FormatAuditJsonl emits:
// string and integer values only, no nesting.  `pos` advances past the
// parsed element; any deviation returns false.
struct LineParser {
  std::string_view line;
  std::size_t pos = 0;

  bool SkipWs() {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    return pos < line.size();
  }

  bool Expect(char c) {
    if (!SkipWs() || line[pos] != c) return false;
    ++pos;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (pos < line.size()) {
      char c = line[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= line.size()) return false;
      char esc = line[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > line.size()) return false;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = line[pos++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // We only emit \u00xx control escapes; anything wider is kept as
          // a replacement byte rather than rejected.
          out->push_back(value < 0x80 ? static_cast<char>(value) : '?');
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseInt(long long* out) {
    if (!SkipWs()) return false;
    bool neg = false;
    if (line[pos] == '-') {
      neg = true;
      ++pos;
    }
    if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
    long long value = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      value = value * 10 + (line[pos] - '0');
      ++pos;
    }
    *out = neg ? -value : value;
    return true;
  }
};

}  // namespace

util::Result<std::vector<AuditRecord>> ParseAuditJsonl(std::string_view text) {
  std::vector<AuditRecord> records;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;
    if (line.empty()) continue;

    LineParser p{line};
    auto fail = [&]() {
      return util::Error(util::ErrorCode::kParseError,
                         "audit jsonl: malformed line " +
                             std::to_string(line_no));
    };
    if (!p.Expect('{')) return fail();
    AuditRecord record;
    if (!p.SkipWs()) return fail();
    if (p.line[p.pos] == '}') {
      ++p.pos;
    } else {
      while (true) {
        std::string key;
        if (!p.ParseString(&key) || !p.Expect(':')) return fail();
        if (key == "ts_us" || key == "seq" || key == "trace_id" ||
            key == "entry") {
          long long value = 0;
          if (!p.ParseInt(&value)) return fail();
          if (key == "ts_us") record.time_us = value;
          else if (key == "seq") record.seq = static_cast<std::uint64_t>(value);
          else if (key == "trace_id") record.trace_id = static_cast<std::uint64_t>(value);
          else record.entry = static_cast<int>(value);
        } else {
          std::string value;
          if (!p.ParseString(&value)) return fail();
          if (key == "category") record.category = std::move(value);
          else if (key == "message") record.message = std::move(value);
          else if (key == "client") record.client = std::move(value);
          else if (key == "tenant") record.tenant = std::move(value);
          else if (key == "decision") record.decision = std::move(value);
          else if (key == "policy") record.policy = std::move(value);
          else if (key == "condition") record.condition = std::move(value);
          // unknown keys: ignored for forward compatibility
        }
        if (p.Expect(',')) continue;
        if (p.Expect('}')) break;
        return fail();
      }
    }
    p.SkipWs();
    if (p.pos != p.line.size()) return fail();
    records.push_back(std::move(record));
  }
  return records;
}

// --- RotatingFileSink -------------------------------------------------------

RotatingFileSink::RotatingFileSink(std::string path)
    : RotatingFileSink(std::move(path), Options()) {}

RotatingFileSink::RotatingFileSink(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

RotatingFileSink::~RotatingFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

bool RotatingFileSink::EnsureOpen() {
  if (file_ != nullptr) return true;
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) return false;
  struct stat st;
  current_bytes_ =
      ::fstat(::fileno(file_), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                         : 0;
  return true;
}

void RotatingFileSink::Rotate() {
  std::fclose(file_);
  file_ = nullptr;
  // Shift path.N-1 → path.N, oldest falls off the end; then path → path.1.
  for (int i = options_.max_rotated_files; i >= 1; --i) {
    std::string from =
        i == 1 ? path_ : path_ + "." + std::to_string(i - 1);
    std::string to = path_ + "." + std::to_string(i);
    std::rename(from.c_str(), to.c_str());  // ENOENT for missing slots is fine
  }
  if (options_.max_rotated_files <= 0) std::remove(path_.c_str());
  ++rotations_;
  current_bytes_ = 0;
}

bool RotatingFileSink::Write(const std::string& line) {
  if (!EnsureOpen()) return false;
  if (options_.rotate_bytes > 0 && current_bytes_ > 0 &&
      current_bytes_ + line.size() > options_.rotate_bytes) {
    Rotate();
    if (!EnsureOpen()) return false;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return false;
  }
  current_bytes_ += line.size();
  if (options_.fsync_each_write) Sync();
  return true;
}

void RotatingFileSink::Sync() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
}

// --- AsyncAuditWriter -------------------------------------------------------

AsyncAuditWriter::AsyncAuditWriter(std::unique_ptr<AuditStreamSink> sink)
    : AsyncAuditWriter(std::move(sink), Options(), nullptr) {}

AsyncAuditWriter::AsyncAuditWriter(std::unique_ptr<AuditStreamSink> sink,
                                   Options options,
                                   telemetry::MetricRegistry* registry)
    : sink_(std::move(sink)), options_(options) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (registry != nullptr) {
    written_counter_ = registry->GetCounter("audit_stream_written_total");
    dropped_counter_ = registry->GetCounter("audit_stream_dropped_total");
    error_counter_ = registry->GetCounter("audit_stream_errors_total");
    depth_gauge_ = registry->GetGauge("audit_stream_queue_depth");
  }
  drain_ = std::thread([this] { DrainLoop(); });
}

AsyncAuditWriter::~AsyncAuditWriter() { Stop(); }

bool AsyncAuditWriter::Offer(AuditRecord record) {
  bool wake_drain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= options_.queue_capacity) {
      ++dropped_;
      if (dropped_counter_ != nullptr) dropped_counter_->Inc();
      return false;
    }
    // Stamp the per-writer sequence under the queue lock so the numbers in
    // the stream file are contiguous in write order: any interior gap means
    // a record was lost, not reordered.
    record.seq = ++next_seq_;
    queue_.push_back(std::move(record));
    // Only a parked drain thread needs a wake-up; a busy one re-polls on
    // its own within a millisecond.  Skipping the notify keeps the futex
    // syscall off the request hot path (the queue-depth gauge is likewise
    // maintained by the drain thread only).
    wake_drain = drain_parked_;
  }
  if (wake_drain) cv_.notify_one();
  return true;
}

void AsyncAuditWriter::Flush() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
  }
  if (sink_ != nullptr) sink_->Sync();
}

void AsyncAuditWriter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (drain_.joinable()) drain_.join();
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (drain_.joinable()) drain_.join();
  if (sink_ != nullptr) sink_->Sync();
}

void AsyncAuditWriter::DrainLoop() {
  std::size_t since_sync = 0;
  std::string line;
  std::vector<AuditRecord> batch;  // buffer ping-pongs with queue_
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (queue_.empty() && !stop_) {
      // Busy phase: self-paced 1 ms poll — producers enqueue without
      // notifying.  Only after an idle poll does the thread park in an
      // untimed wait (and announce it, so Offer knows to wake it).
      if (!cv_.wait_for(lock, std::chrono::milliseconds(1),
                        [this] { return stop_ || !queue_.empty(); })) {
        drain_parked_ = true;
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        drain_parked_ = false;
      }
    }
    if (queue_.empty() && stop_) break;

    // Take the batch; format + write with the lock released so producers
    // only ever contend with a vector swap, never with the sink.  `batch`
    // was cleared (capacity kept) after the previous round, so the swap
    // hands producers a warm buffer back.
    batch.swap(queue_);
    in_flight_ = batch.size();
    if (depth_gauge_ != nullptr) depth_gauge_->Set(0);
    lock.unlock();

    std::uint64_t wrote = 0;
    std::uint64_t errors = 0;
    for (const AuditRecord& record : batch) {
      line.clear();
      AppendAuditJsonl(record, &line);
      line.push_back('\n');
      if (sink_ != nullptr && sink_->Write(line)) {
        ++wrote;
        if (options_.sync_every > 0 && ++since_sync >= options_.sync_every) {
          sink_->Sync();
          since_sync = 0;
        }
      } else {
        ++errors;
      }
    }
    batch.clear();
    if (written_counter_ != nullptr && wrote > 0) written_counter_->Inc(wrote);
    if (error_counter_ != nullptr && errors > 0) error_counter_->Inc(errors);

    lock.lock();
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<std::int64_t>(queue_.size()));
    }
    written_ += wrote;
    write_errors_ += errors;
    in_flight_ = 0;
    if (queue_.empty()) drained_cv_.notify_all();
  }
}

std::uint64_t AsyncAuditWriter::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t AsyncAuditWriter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t AsyncAuditWriter::write_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_errors_;
}

std::size_t AsyncAuditWriter::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace gaa::audit
