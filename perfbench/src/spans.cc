#include "spans.h"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

namespace {

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t request;
};

struct ThreadSpans {
  std::vector<Record> spans;
  std::vector<std::int32_t> open;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSpans>>& AllThreads() {
  static auto* threads = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *threads;
}

ThreadSpans& Mine() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    owned->spans.reserve(1 << 16);
    mine = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    AllThreads().push_back(std::move(owned));
  }
  return *mine;
}

}  // namespace

std::int64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SpanLog::Enable(bool on) { g_enabled.store(on); }
bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int32_t SpanLog::Begin(const char* name, std::uint64_t request) {
  ThreadSpans& t = Mine();
  const std::int32_t parent = t.open.empty() ? -1 : t.open.back();
  if (parent >= 0) request = t.spans[static_cast<std::size_t>(parent)].request;
  const auto handle = static_cast<std::int32_t>(t.spans.size());
  t.spans.push_back({name, MonoNs(), 0, parent, request});
  t.open.push_back(handle);
  return handle;
}

void SpanLog::End(std::int32_t handle) {
  ThreadSpans& t = Mine();
  t.spans[static_cast<std::size_t>(handle)].end_ns = MonoNs();
  if (!t.open.empty() && t.open.back() == handle) t.open.pop_back();
}

std::uint64_t SpanLog::CurrentRequest() {
  ThreadSpans& t = Mine();
  return t.open.empty()
             ? 0
             : t.spans[static_cast<std::size_t>(t.open.back())].request;
}

void SpanLog::Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::uint64_t request) {
  Mine().spans.push_back({name, start_ns, end_ns, -1, request});
}

std::vector<LoadedSpan> SpanLog::Snapshot() {
  std::vector<LoadedSpan> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& thread : AllThreads()) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (const Record& r : thread->spans) {
      LoadedSpan s;
      s.name = r.name;
      s.start_ns = r.start_ns;
      s.end_ns = r.end_ns;
      s.parent = r.parent < 0 ? -1 : base + r.parent;
      s.request = r.request;
      out.push_back(std::move(s));
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<LoadedSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const LoadedSpan& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", i, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::vector<LoadedSpan> ReadSpans(const std::string& path) {
  std::vector<LoadedSpan> out;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::size_t id = 0;
    LoadedSpan s;
    if (fields >> id >> s.name >> s.start_ns >> s.end_ns >> s.parent >>
        s.request) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

void ComputeSelfTimes(std::vector<LoadedSpan>* spans) {
  for (LoadedSpan& s : *spans) s.self_ns = s.end_ns - s.start_ns;
  for (const LoadedSpan& s : *spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans->size()) {
      (*spans)[static_cast<std::size_t>(s.parent)].self_ns -=
          s.end_ns - s.start_ns;
    }
  }
}

}  // namespace perfbench
