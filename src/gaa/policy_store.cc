#include "gaa/policy_store.h"

#include "eacl/parser.h"
#include "eacl/validate.h"
#include "eacl/printer.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "util/config.h"

namespace gaa::core {

namespace {

util::Result<eacl::Eacl> ParseValidated(const std::string& eacl_text) {
  auto parsed = eacl::ParseEacl(eacl_text);
  if (!parsed.ok()) return parsed.error();
  auto valid = eacl::Validate(parsed.value());
  if (!valid.ok()) return valid.error();
  return parsed;
}

std::string PrefixKey(const std::string& dir_prefix) {
  return dir_prefix.empty() ? "/" : dir_prefix;
}

}  // namespace

util::VoidResult PolicyStore::AddTenantSystemPolicy(
    const std::string& tenant, const std::string& eacl_text,
    const std::string& name) {
  auto parsed = ParseValidated(eacl_text);
  if (!parsed.ok()) return parsed.error();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PolicySource>& system = sources_[tenant].system;
  system.push_back({std::move(parsed).take(), eacl_text,
                    name.empty() ? "system#" + std::to_string(system.size())
                                 : name});
  CommitLocked(tenant);
  return util::VoidResult::Ok();
}

util::VoidResult PolicyStore::SetTenantLocalPolicy(
    const std::string& tenant, const std::string& dir_prefix,
    const std::string& eacl_text) {
  auto parsed = ParseValidated(eacl_text);
  if (!parsed.ok()) return parsed.error();
  std::string key = PrefixKey(dir_prefix);
  std::lock_guard<std::mutex> lock(mu_);
  sources_[tenant].locals[key] = {std::move(parsed).take(), eacl_text,
                                  "local:" + key};
  CommitLocked(tenant);
  return util::VoidResult::Ok();
}

bool PolicyStore::RemoveTenantLocalPolicy(const std::string& tenant,
                                          const std::string& dir_prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(tenant);
  if (it == sources_.end()) return false;
  bool removed = it->second.locals.erase(PrefixKey(dir_prefix)) > 0;
  // Commit even when nothing was erased: every mutator ends in the same
  // bump + republish, so the published table can never lag its sources.
  CommitLocked(tenant);
  return removed;
}

util::VoidResult PolicyStore::AddSystemPolicyFile(const std::string& path) {
  auto text = util::ReadFileToString(path);
  if (!text.ok()) return text.error();
  return AddSystemPolicyNamed(text.value(), path);
}

util::VoidResult PolicyStore::SetLocalPolicyFile(const std::string& dir_prefix,
                                                 const std::string& path) {
  auto text = util::ReadFileToString(path);
  if (!text.ok()) return text.error();
  return SetLocalPolicy(dir_prefix, text.value());
}

void PolicyStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.clear();
  sources_.try_emplace("");
  CommitLocked("");
}

void PolicyStore::CommitLocked(const std::string& tenant) {
  version_.fetch_add(1);
  RepublishLocked(tenant.empty() ? nullptr : &tenant);
}

std::vector<std::string> PolicyStore::DirectoryChain(
    const std::string& object_path) {
  std::vector<std::string> chain;
  chain.push_back("/");
  if (object_path.empty() || object_path[0] != '/') return chain;
  std::size_t pos = 1;
  while (pos < object_path.size()) {
    std::size_t slash = object_path.find('/', pos);
    if (slash == std::string::npos) break;  // final component is the object
    chain.push_back(object_path.substr(0, slash));
    pos = slash + 1;
  }
  return chain;
}

std::array<const PolicyStore::NamespaceSources*, 2> PolicyStore::LayersLocked(
    std::string_view tenant) const {
  const NamespaceSources* own = nullptr;
  if (!tenant.empty()) {
    auto it = sources_.find(tenant);
    if (it != sources_.end()) own = &it->second;
  }
  return {&GlobalLocked(), own};
}

eacl::ComposedPolicy PolicyStore::PoliciesForTenant(
    std::string_view tenant, const std::string& object_path) const {
  // Paper-faithful mode reads and translates the policy text per request
  // (gaa_get_object_policy_info "reads the system-wide policy file,
  // converts it to the internal EACL representation...").
  const bool reparse = parse_on_retrieve_.load();
  std::vector<eacl::Eacl> system_list;
  std::vector<eacl::Eacl> local_list;
  std::vector<std::string> system_names;
  std::vector<std::string> local_names;
  std::vector<std::string> system_texts;
  std::vector<std::string> local_texts;
  auto take = [reparse](const PolicySource& src, std::vector<eacl::Eacl>& list,
                        std::vector<std::string>& texts,
                        std::vector<std::string>& names) {
    if (reparse) {
      texts.push_back(src.text);
    } else {
      list.push_back(src.policy);
    }
    names.push_back(src.name);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto layers = LayersLocked(tenant);
    for (const NamespaceSources* layer : layers) {
      if (layer == nullptr) continue;
      for (const PolicySource& src : layer->system) {
        take(src, system_list, system_texts, system_names);
      }
    }
    for (const auto& dir : DirectoryChain(object_path)) {
      // A later layer's local shadows an earlier one's at the same prefix.
      const PolicySource* local = nullptr;
      for (const NamespaceSources* layer : layers) {
        if (layer == nullptr) continue;
        auto it = layer->locals.find(dir);
        if (it != layer->locals.end()) local = &it->second;
      }
      if (local != nullptr) take(*local, local_list, local_texts, local_names);
    }
  }
  for (const auto& text : system_texts) {
    auto parsed = eacl::ParseEacl(text);
    if (parsed.ok()) system_list.push_back(std::move(parsed).take());
  }
  for (const auto& text : local_texts) {
    auto parsed = eacl::ParseEacl(text);
    if (parsed.ok()) local_list.push_back(std::move(parsed).take());
  }
  return eacl::Compose(std::move(system_list), std::move(local_list),
                       std::move(system_names), std::move(local_names));
}

// --- tenant namespaces (DESIGN.md §14) --------------------------------------

util::VoidResult PolicyStore::AddTenant(const std::string& tenant) {
  if (tenant.empty()) {
    return util::VoidResult(util::ErrorCode::kInvalidArgument,
                            "tenant name must be non-empty (\"\" is the "
                            "default namespace)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!sources_.try_emplace(tenant).second) {
    return util::VoidResult::Ok();  // idempotent
  }
  CommitLocked(tenant);
  return util::VoidResult::Ok();
}

bool PolicyStore::RemoveTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant.empty() || sources_.erase(tenant) == 0) return false;
  CommitLocked(tenant);
  return true;
}

bool PolicyStore::HasTenant(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !tenant.empty() && sources_.find(tenant) != sources_.end();
}

std::vector<std::string> PolicyStore::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sources_.size() - 1);
  for (auto it = std::next(sources_.begin()); it != sources_.end(); ++it) {
    names.push_back(it->first);
  }
  return names;
}

std::size_t PolicyStore::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sources_.size() - 1;
}

std::vector<PolicyStore::TenantInfo> PolicyStore::TenantInfos() const {
  std::shared_ptr<const Published> pub =
      published_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantInfo> out;
  out.reserve(sources_.size() - 1);
  for (auto it = std::next(sources_.begin()); it != sources_.end(); ++it) {
    TenantInfo info;
    info.name = it->first;
    info.system_policies = it->second.system.size();
    info.local_policies = it->second.locals.size();
    if (pub != nullptr) {
      auto snap = pub->snapshots.find(it->first);
      if (snap != pub->snapshots.end()) {
        info.snapshot_version = snap->second->store_version();
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

eacl::CompiledComposition PolicySnapshot::ForPath(
    const std::string& object_path) const {
  eacl::CompiledComposition out;
  out.mode = mode_;
  out.system.reserve(system_.size());
  for (const auto& p : system_) out.system.push_back(p.get());
  if (mode_ != eacl::CompositionMode::kStop) {
    for (const auto& dir : PolicyStore::DirectoryChain(object_path)) {
      auto it = locals_.find(dir);
      if (it != locals_.end()) out.local.push_back(it->second.get());
    }
  }
  return out;
}

const PolicySnapshot* PolicyStore::Published::Find(
    std::string_view tenant) const {
  if (tenant.empty()) return default_snapshot;
  auto it = snapshots.find(tenant);
  return it == snapshots.end() ? default_snapshot : it->second.get();
}

void PolicyStore::BindEngine(EngineBinding binding) {
  std::lock_guard<std::mutex> lock(mu_);
  binding_ = binding;
  ir_store_.AttachMetrics(binding.metrics);
  RepublishLocked(nullptr);
}

std::shared_ptr<const PolicySnapshot> PolicyStore::CurrentSnapshotFor(
    std::string_view tenant) const {
  std::shared_ptr<const Published> pub =
      published_.load(std::memory_order_acquire);
  if (pub == nullptr) return nullptr;
  const PolicySnapshot* snap = pub->Find(tenant);
  // Aliasing: the caller's one reference pins the whole published table.
  return std::shared_ptr<const PolicySnapshot>(std::move(pub), snap);
}

std::shared_ptr<const PolicySnapshot> PolicyStore::FreshSnapshotFor(
    std::string_view tenant, const ConditionRegistry* registry,
    std::uint64_t registry_version) {
  if (parse_on_retrieve_.load(std::memory_order_relaxed)) return nullptr;
  std::shared_ptr<const Published> pub =
      published_.load(std::memory_order_acquire);
  if (pub != nullptr &&
      pub->source_version == version_.load(std::memory_order_acquire)) {
    // Hot path: one atomic shared_ptr load plus one counter compare.  The
    // source_version check is the staleness regression guard: a table that
    // lags its sources (a mutator that forgot to republish) is recompiled
    // below instead of being served forever.
    const PolicySnapshot* snap = pub->Find(tenant);
    if (snap->compiled_for() == registry &&
        snap->registry_version() == registry_version) {
      return std::shared_ptr<const PolicySnapshot>(std::move(pub), snap);
    }
  }
  // Cold path: routines were (un)registered since the last compile, the
  // table lags the sources, or another GaaApi rebound the store.
  // Recompile under the mutex.
  std::lock_guard<std::mutex> lock(mu_);
  if (binding_.registry != registry) {
    // Engine bound elsewhere (e.g. two APIs sharing one store): serving a
    // snapshot compiled against a different registry would evaluate the
    // wrong routines.  Fall back to the interpreter.
    return nullptr;
  }
  pub = published_.load(std::memory_order_acquire);
  if (pub == nullptr || pub->source_version != version_.load() ||
      pub->Find(tenant)->registry_version() !=
          binding_.registry->change_version()) {
    RepublishLocked(nullptr);
    pub = published_.load(std::memory_order_acquire);
  }
  const PolicySnapshot* snap = pub->Find(tenant);
  return std::shared_ptr<const PolicySnapshot>(std::move(pub), snap);
}

std::uint64_t PolicyStore::CompileEnvKeyLocked() const {
  std::uint64_t key = binding_.registry->change_version();
  key = key * 0x9E3779B97F4A7C15ULL ^
        static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(binding_.registry));
  key ^= static_cast<std::uint64_t>(
             reinterpret_cast<std::uintptr_t>(binding_.metrics)) << 1;
  return key;
}

std::shared_ptr<const PolicySnapshot> PolicyStore::BuildSnapshotLocked(
    const std::string& tenant) {
  auto snap = std::make_shared<PolicySnapshot>();
  snap->store_version_ = version_.load();
  snap->registry_version_ = binding_.registry->change_version();
  snap->compiled_for_ = binding_.registry;
  snap->tenant_ = tenant;

  eacl::CompileEnv env{binding_.registry, binding_.metrics};
  const std::uint64_t env_key = CompileEnvKeyLocked();
  auto intern = [&](const PolicySource& src) {
    return ir_store_.Intern(src.policy, src.name, env, env_key);
  };

  // Effective composition mode mirrors eacl::Compose: the first system
  // policy declaring one wins; default narrow.  Tenant system policies
  // evaluate after the globals, so globals also win the mode.
  snap->mode_ = eacl::CompositionMode::kNarrow;
  bool mode_set = false;
  for (const NamespaceSources* layer : LayersLocked(tenant)) {
    if (layer == nullptr) continue;
    for (const PolicySource& src : layer->system) {
      if (!mode_set && src.policy.mode.has_value()) {
        snap->mode_ = *src.policy.mode;
        mode_set = true;
      }
      snap->system_.push_back(intern(src));
    }
    // Overlay: a tenant local replaces the global local at its prefix.
    for (const auto& [prefix, src] : layer->locals) {
      snap->locals_[prefix] = intern(src);
    }
  }
  return snap;
}

void PolicyStore::RepublishLocked(const std::string* only) {
  if (binding_.registry == nullptr) return;
  util::Stopwatch sw;
  std::shared_ptr<const Published> prev =
      published_.load(std::memory_order_acquire);
  auto next = std::make_shared<Published>();
  bool built = false;
  for (const auto& [name, sources] : sources_) {
    std::shared_ptr<const PolicySnapshot> snap;
    if (only != nullptr && name != *only && prev != nullptr) {
      auto it = prev->snapshots.find(name);
      if (it != prev->snapshots.end()) snap = it->second;
    }
    if (snap == nullptr) {
      // Shared fragments intern to the objects an earlier build created,
      // so rebuilding N tenants is N pointer-sharing passes, not N
      // compiles.
      snap = BuildSnapshotLocked(name);
      built = true;
    }
    next->snapshots.emplace_hint(next->snapshots.end(), name, std::move(snap));
  }
  next->default_snapshot = next->snapshots.begin()->second.get();
  next->source_version = version_.load();

  if (telemetry::MetricRegistry* metrics = binding_.metrics) {
    if (built) {
      metrics->GetHistogram("gaa_policy_compile_us")
          ->Record(static_cast<std::uint64_t>(sw.ElapsedUs()));
    }
    if (only == nullptr) {
      metrics->GetGauge("gaa_policy_snapshot_version")
          ->Set(static_cast<std::int64_t>(
              next->default_snapshot->store_version()));
      metrics->GetGauge("gaa_policy_snapshot_built_us")
          ->Set(static_cast<std::int64_t>(sw.ElapsedUs()));
    }
    metrics->GetGauge("gaa_tenant_count")
        ->Set(static_cast<std::int64_t>(sources_.size() - 1));
  }

  // Readers that loaded the previous table hold their own reference; it
  // and every snapshot only it holds are freed when the last one lets go.
  published_.store(std::move(next), std::memory_order_release);
  // Compiles are rare and off the request path, so one sweep per
  // republish keeps the IR table bounded by the live set, removals
  // included, without a background thread.
  prev.reset();
  ir_store_.Sweep();
}

std::string PolicyStore::ExportSystemPolicies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const auto& system = GlobalLocked().system;
  for (std::size_t i = 0; i < system.size(); ++i) {
    if (i > 0) out += "\n";
    out += eacl::PrintEacl(system[i].policy);
  }
  return out;
}

std::optional<std::string> PolicyStore::ExportLocalPolicy(
    const std::string& dir_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& locals = GlobalLocked().locals;
  auto it = locals.find(PrefixKey(dir_prefix));
  if (it == locals.end()) return std::nullopt;
  return eacl::PrintEacl(it->second.policy);
}

std::size_t PolicyStore::system_policy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return GlobalLocked().system.size();
}

std::size_t PolicyStore::local_policy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return GlobalLocked().locals.size();
}

}  // namespace gaa::core
