#include "eacl/ir_store.h"

#include <utility>

#include "telemetry/metrics.h"

namespace gaa::eacl {

namespace {

// FNV-1a 64.  Every variable-length field is prefixed by its length and
// every structural position by a distinct tag byte, so no two different
// structures serialize identically (e.g. ("ab","c") vs ("a","bc"), or a
// condition migrating between phase blocks).
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void MixByte(std::uint64_t& h, unsigned char b) {
  h ^= b;
  h *= kFnvPrime;
}

void MixU64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) MixByte(h, static_cast<unsigned char>(v >> (i * 8)));
}

void MixString(std::uint64_t& h, const std::string& s) {
  MixU64(h, s.size());
  for (char c : s) MixByte(h, static_cast<unsigned char>(c));
}

void MixCondition(std::uint64_t& h, const Condition& cond) {
  MixByte(h, 0xC1);
  MixString(h, cond.type);
  MixString(h, cond.def_auth);
  MixString(h, cond.value);
}

void MixBlock(std::uint64_t& h, unsigned char tag,
              const std::vector<Condition>& block) {
  MixByte(h, tag);
  MixU64(h, block.size());
  for (const Condition& cond : block) MixCondition(h, cond);
}

void MixEntry(std::uint64_t& h, const Entry& entry) {
  MixByte(h, 0xE1);
  MixByte(h, entry.right.positive ? 1 : 0);
  MixString(h, entry.right.def_auth);
  MixString(h, entry.right.value);
  MixBlock(h, 0xB0, entry.pre);
  MixBlock(h, 0xB1, entry.request_result);
  MixBlock(h, 0xB2, entry.mid);
  MixBlock(h, 0xB3, entry.post);
}

}  // namespace

std::uint64_t HashCondition(const Condition& cond) {
  std::uint64_t h = kFnvOffset;
  MixCondition(h, cond);
  return h;
}

std::uint64_t HashEntry(const Entry& entry) {
  std::uint64_t h = kFnvOffset;
  MixEntry(h, entry);
  return h;
}

std::uint64_t HashPolicy(const Eacl& policy) {
  std::uint64_t h = kFnvOffset;
  MixByte(h, 0xA1);
  MixByte(h, policy.mode.has_value()
                 ? static_cast<unsigned char>(1 + static_cast<int>(*policy.mode))
                 : 0);
  MixU64(h, policy.entries.size());
  for (const Entry& entry : policy.entries) MixEntry(h, entry);
  return h;
}

std::shared_ptr<const CompiledPolicy> IrStore::Intern(
    const Eacl& policy, const std::string& name, const CompileEnv& env,
    std::uint64_t env_version) {
  // Key = structure hash + provenance name + environment version.  The name
  // is part of the key because attribution counters and audit records are
  // keyed by it; the env version because a different registry binding bakes
  // different routines into the IR.
  std::string key;
  {
    char hex[17];
    std::uint64_t h = HashPolicy(policy);
    for (int i = 15; i >= 0; --i) {
      hex[i] = "0123456789abcdef"[h & 0xF];
      h >>= 4;
    }
    hex[16] = '\0';
    key.reserve(16 + 2 + name.size() + 20);
    key.append(hex, 16);
    key.push_back('\x1f');
    key.append(name);
    key.push_back('\x1f');
    key.append(std::to_string(env_version));
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (auto live = it->second.lock()) {
      ++hits_;
      if (hit_counter_ != nullptr) hit_counter_->Inc();
      return live;
    }
  }
  ++misses_;
  if (miss_counter_ != nullptr) miss_counter_->Inc();
  std::shared_ptr<const CompiledPolicy> compiled =
      CompilePolicy(policy, name, env);
  map_[key] = compiled;
  return compiled;
}

void IrStore::AttachMetrics(telemetry::MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) return;
  // Attach handles only; no catch-up.  Callers attach before the first
  // Intern (BindEngine does so before its initial republish), and a
  // re-attach to the same registry must not double-count.
  hit_counter_ = registry->GetCounter("gaa_ir_store_hits_total");
  miss_counter_ = registry->GetCounter("gaa_ir_store_misses_total");
  entries_gauge_ = registry->GetGauge("gaa_ir_store_entries");
  bytes_gauge_ = registry->GetGauge("gaa_ir_store_bytes");
  PublishGaugesLocked();
}

IrStore::Stats IrStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.sweeps = sweeps_;
  std::size_t live = 0;
  std::size_t bytes = 0;
  for (const auto& [key, weak] : map_) {
    if (auto p = weak.lock()) {
      ++live;
      bytes += p->ApproxIrBytes();
    }
  }
  s.entries = live;
  s.bytes = bytes;
  return s;
}

void IrStore::Sweep() {
  std::lock_guard<std::mutex> lock(mu_);
  live_bytes_ = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (auto p = it->second.lock()) {
      live_bytes_ += p->ApproxIrBytes();
      ++it;
    } else {
      it = map_.erase(it);
      ++sweeps_;
    }
  }
  PublishGaugesLocked();
}

void IrStore::PublishGaugesLocked() {
  if (entries_gauge_ != nullptr) {
    entries_gauge_->Set(static_cast<std::int64_t>(map_.size()));
  }
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(static_cast<std::int64_t>(live_bytes_));
  }
}

}  // namespace gaa::eacl
