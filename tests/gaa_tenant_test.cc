// Tenant namespaces over the content-addressed IR store (DESIGN.md §14):
// structural hash canonicality, cross-tenant compiled-policy dedup, layered
// composition, memo/threat isolation between namespaces, Host-header tenant
// routing, and the differential guarantee that a tenant-scoped deployment is
// byte-identical to an equivalently configured single-namespace one.
#include <gtest/gtest.h>

#include <string>

#include "conditions/builtin.h"
#include "eacl/ir_store.h"
#include "gaa/api.h"
#include "gaa/system_state.h"
#include "http/doc_tree.h"
#include "http/request.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"

namespace gaa::core {
namespace {

using gaa::testing::MakeContext;
using gaa::testing::TestRig;
using util::Tristate;

// --- structural content hashes ---------------------------------------------

eacl::Condition Cond(std::string type, std::string auth, std::string value) {
  eacl::Condition c;
  c.type = std::move(type);
  c.def_auth = std::move(auth);
  c.value = std::move(value);
  return c;
}

eacl::Eacl GrantPolicy() {
  eacl::Eacl policy;
  policy.mode = eacl::CompositionMode::kNarrow;
  eacl::Entry entry;
  entry.right = {true, "apache", "*"};
  entry.pre.push_back(Cond("pre_cond_system_threat_level", "local", "=low"));
  policy.entries.push_back(std::move(entry));
  return policy;
}

TEST(IrHash, EqualStructureHashesEqual) {
  EXPECT_EQ(eacl::HashPolicy(GrantPolicy()), eacl::HashPolicy(GrantPolicy()));
  EXPECT_EQ(eacl::HashEntry(GrantPolicy().entries[0]),
            eacl::HashEntry(GrantPolicy().entries[0]));
  EXPECT_EQ(eacl::HashCondition(Cond("a", "b", "c")),
            eacl::HashCondition(Cond("a", "b", "c")));
}

TEST(IrHash, AnyFieldTweakChangesTheHash) {
  const auto base = eacl::HashPolicy(GrantPolicy());

  auto mode = GrantPolicy();
  mode.mode = eacl::CompositionMode::kExpand;
  EXPECT_NE(eacl::HashPolicy(mode), base);

  auto unset_mode = GrantPolicy();
  unset_mode.mode.reset();
  EXPECT_NE(eacl::HashPolicy(unset_mode), base);

  auto value = GrantPolicy();
  value.entries[0].pre[0].value = "=high";
  EXPECT_NE(eacl::HashPolicy(value), base);

  auto sign = GrantPolicy();
  sign.entries[0].right.positive = false;
  sign.entries[0].mid.clear();
  sign.entries[0].post.clear();
  EXPECT_NE(eacl::HashPolicy(sign), base);
}

TEST(IrHash, FieldBoundariesAreUnambiguous) {
  // Length-prefixed serialization: shifting a byte across a field boundary
  // must not collide ("ab"/"c" vs "a"/"bc").
  EXPECT_NE(eacl::HashCondition(Cond("ab", "c", "")),
            eacl::HashCondition(Cond("a", "bc", "")));
  EXPECT_NE(eacl::HashCondition(Cond("x", "ab", "c")),
            eacl::HashCondition(Cond("x", "a", "bc")));
}

TEST(IrHash, PhaseBlockPlacementIsPartOfTheHash) {
  auto pre = GrantPolicy();
  auto mid = GrantPolicy();
  mid.entries[0].mid = mid.entries[0].pre;
  mid.entries[0].pre.clear();
  EXPECT_NE(eacl::HashEntry(pre.entries[0]), eacl::HashEntry(mid.entries[0]));
}

// --- fixture ----------------------------------------------------------------

constexpr const char* kGrant = "pos_access_right apache *\n";
constexpr const char* kDeny = "neg_access_right apache *\n";

struct Stack {
  Stack() : api(&store, rig.services) {
    RoutineCatalog catalog;
    cond::RegisterBuiltinRoutines(catalog);
    EXPECT_TRUE(api.Initialize(catalog, cond::DefaultConfigText(), "").ok());
  }

  AuthzResult Go(const std::string& tenant,
                 const std::string& object = "/index.html") {
    RequestContext ctx = MakeContext("10.0.0.1", object);
    ctx.tenant = tenant;
    return api.Authorize(ctx.object, RequestedRight{"apache", ctx.operation},
                         ctx);
  }

  bool Memoized(const std::string& tenant,
                const std::string& object = "/index.html") {
    return api.DecisionIsMemoized(object, RequestedRight{"apache", "GET"},
                                  util::Ipv4Address::Parse("10.0.0.1").value(),
                                  tenant);
  }

  TestRig rig;
  PolicyStore store;
  GaaApi api;
};

// --- cross-tenant IR dedup ---------------------------------------------------

TEST(IrStoreDedup, IdenticalTenantBoilerplateInternsOnce) {
  Stack s;
  ASSERT_TRUE(s.store.AddTenantSystemPolicy("t1", kGrant).ok());
  const auto after_first = s.store.ir_store_stats();
  ASSERT_TRUE(s.store.AddTenantSystemPolicy("t2", kGrant).ok());
  const auto after_second = s.store.ir_store_stats();

  // Both tenants' boilerplate carries the same positional provenance name
  // ("system#0") and identical structure, so the second compile is a hit.
  EXPECT_GT(after_second.hits, after_first.hits);

  auto t1 = s.store.CurrentSnapshotFor("t1");
  auto t2 = s.store.CurrentSnapshotFor("t2");
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  ASSERT_EQ(t1->system().size(), 1u);
  ASSERT_EQ(t2->system().size(), 1u);
  // Structural sharing, not just equal content: one immutable object.
  EXPECT_EQ(t1->system()[0].get(), t2->system()[0].get());
}

TEST(IrStoreDedup, SharedGlobalLayerIsOneObjectAcrossTenants) {
  Stack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kGrant).ok());
  ASSERT_TRUE(s.store.AddTenant("t1").ok());
  ASSERT_TRUE(s.store.AddTenant("t2").ok());

  auto def = s.store.CurrentSnapshot();
  auto t1 = s.store.CurrentSnapshotFor("t1");
  auto t2 = s.store.CurrentSnapshotFor("t2");
  ASSERT_NE(def, nullptr);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(def->locals().at("/").get(), t1->locals().at("/").get());
  EXPECT_EQ(def->locals().at("/").get(), t2->locals().at("/").get());
}

TEST(IrStoreDedup, DifferentStructureMissesAndDiverges) {
  Stack s;
  ASSERT_TRUE(s.store.AddTenantSystemPolicy("t1", kGrant).ok());
  const auto before = s.store.ir_store_stats();
  ASSERT_TRUE(s.store.AddTenantSystemPolicy("t2", kDeny).ok());
  const auto after = s.store.ir_store_stats();
  EXPECT_GT(after.misses, before.misses);

  auto t1 = s.store.CurrentSnapshotFor("t1");
  auto t2 = s.store.CurrentSnapshotFor("t2");
  EXPECT_NE(t1->system()[0].get(), t2->system()[0].get());
}

// --- layered composition -----------------------------------------------------

TEST(TenantLayering, TenantSystemPoliciesFollowGlobals) {
  Stack s;
  ASSERT_TRUE(s.store.AddSystemPolicy(std::string("eacl_mode 1\n") + kGrant)
                  .ok());
  ASSERT_TRUE(s.store.AddTenantSystemPolicy("acme", kDeny).ok());

  auto global_view = s.store.PoliciesForTenant("", "/x");
  EXPECT_EQ(global_view.system_policies.size(), 1u);

  auto tenant_view = s.store.PoliciesForTenant("acme", "/x");
  ASSERT_EQ(tenant_view.system_policies.size(), 2u);
  EXPECT_TRUE(tenant_view.system_policies[0].entries[0].right.positive);
  EXPECT_FALSE(tenant_view.system_policies[1].entries[0].right.positive);
}

TEST(TenantLayering, TenantLocalShadowsSamePrefixGlobal) {
  Stack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kGrant).ok());
  ASSERT_TRUE(s.store.SetLocalPolicy("/docs", kGrant).ok());
  ASSERT_TRUE(s.store.SetTenantLocalPolicy("acme", "/", kDeny).ok());

  auto view = s.store.PoliciesForTenant("acme", "/docs/guide.html");
  ASSERT_EQ(view.local_policies.size(), 2u);
  // "/" is the tenant's (shadowed); "/docs" falls through to the global.
  EXPECT_FALSE(view.local_policies[0].entries[0].right.positive);
  EXPECT_TRUE(view.local_policies[1].entries[0].right.positive);

  // The default namespace never sees the tenant overlay.
  auto global_view = s.store.PoliciesForTenant("", "/docs/guide.html");
  ASSERT_EQ(global_view.local_policies.size(), 2u);
  EXPECT_TRUE(global_view.local_policies[0].entries[0].right.positive);
}

TEST(TenantLayering, UnknownTenantDegradesToGlobalView) {
  Stack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kGrant).ok());
  EXPECT_EQ(s.Go("nope").status, Tristate::kYes);
  auto snap = s.store.CurrentSnapshotFor("nope");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->tenant(), "");
}

// --- memo isolation ----------------------------------------------------------

TEST(TenantMemo, ReloadFencesOnlyTheMutatedTenant) {
  Stack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kGrant).ok());
  ASSERT_TRUE(s.store.AddTenant("a").ok());
  ASSERT_TRUE(s.store.AddTenant("b").ok());

  EXPECT_EQ(s.Go("").status, Tristate::kYes);
  EXPECT_EQ(s.Go("a").status, Tristate::kYes);
  EXPECT_EQ(s.Go("b").status, Tristate::kYes);
  EXPECT_TRUE(s.Memoized(""));
  EXPECT_TRUE(s.Memoized("a"));
  EXPECT_TRUE(s.Memoized("b"));

  // Reload tenant b only: a's and the default namespace's memos stay warm.
  ASSERT_TRUE(s.store.SetTenantLocalPolicy("b", "/", kDeny).ok());
  EXPECT_FALSE(s.Memoized("b"));
  EXPECT_TRUE(s.Memoized(""));
  EXPECT_TRUE(s.Memoized("a"));

  EXPECT_EQ(s.Go("b").status, Tristate::kNo);
  EXPECT_EQ(s.Go("a").status, Tristate::kYes);
}

TEST(TenantMemo, GlobalMutationFencesEveryNamespace) {
  Stack s;
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kGrant).ok());
  ASSERT_TRUE(s.store.AddTenant("a").ok());
  EXPECT_EQ(s.Go("").status, Tristate::kYes);
  EXPECT_EQ(s.Go("a").status, Tristate::kYes);
  ASSERT_TRUE(s.store.SetLocalPolicy("/", kDeny).ok());
  EXPECT_FALSE(s.Memoized(""));
  EXPECT_FALSE(s.Memoized("a"));
  EXPECT_EQ(s.Go("a").status, Tristate::kNo);
}

// --- per-tenant threat profile ----------------------------------------------

TEST(TenantThreat, OverrideAppliesOnlyToItsNamespace) {
  Stack s;
  ASSERT_TRUE(s.store
                  .SetLocalPolicy("/",
                                  "pos_access_right apache *\n"
                                  "pre_cond_system_threat_level local =low\n")
                  .ok());
  ASSERT_TRUE(s.store.AddTenant("hot").ok());

  EXPECT_EQ(s.Go("").status, Tristate::kYes);
  EXPECT_EQ(s.Go("hot").status, Tristate::kYes);

  s.rig.state.SetTenantThreatLevel("hot", ThreatLevel::kHigh);
  EXPECT_EQ(s.Go("hot").status, Tristate::kNo);
  EXPECT_EQ(s.Go("").status, Tristate::kYes);  // global profile untouched

  s.rig.state.ClearTenantThreatLevel("hot");
  EXPECT_EQ(s.Go("hot").status, Tristate::kYes);
}

TEST(TenantThreat, EpochMovesOnlyForTheTransitionedTenant) {
  TestRig rig;
  const auto cold_before = rig.state.TenantThreatEpoch("cold");
  const auto hot_before = rig.state.TenantThreatEpoch("hot");
  rig.state.SetTenantThreatLevel("hot", ThreatLevel::kHigh);
  EXPECT_GT(rig.state.TenantThreatEpoch("hot"), hot_before);
  EXPECT_EQ(rig.state.TenantThreatEpoch("cold"), cold_before);
  // Re-setting the same level is not a transition.
  const auto hot_mid = rig.state.TenantThreatEpoch("hot");
  rig.state.SetTenantThreatLevel("hot", ThreatLevel::kHigh);
  EXPECT_EQ(rig.state.TenantThreatEpoch("hot"), hot_mid);
  // Clearing back to the global profile is a transition again.
  rig.state.ClearTenantThreatLevel("hot");
  EXPECT_GT(rig.state.TenantThreatEpoch("hot"), hot_mid);
}

// --- differential: tenant == single-namespace --------------------------------

constexpr const char* kSysPolicy =
    "eacl_mode 1\n"
    "neg_access_right apache *\n"
    "pre_cond_regex gnu *phf*\n";

TEST(TenantDifferential, ByteIdenticalToSingleNamespaceStore) {
  web::GaaWebServer single(http::DocTree::DemoSite());
  ASSERT_TRUE(single.AddSystemPolicy(kSysPolicy).ok());
  ASSERT_TRUE(single.SetLocalPolicy("/", kGrant).ok());

  web::GaaWebServer multi(http::DocTree::DemoSite());
  ASSERT_TRUE(multi.AddTenant("acme", "acme.example").ok());
  ASSERT_TRUE(multi.AddTenantSystemPolicy("acme", kSysPolicy).ok());
  ASSERT_TRUE(multi.SetTenantLocalPolicy("acme", "/", kGrant).ok());

  for (const char* target :
       {"/index.html", "/docs/guide.html", "/cgi-bin/phf?Qalias=x",
        "/missing.html"}) {
    auto a = single.Get(target, "10.1.2.3");
    auto b = multi.HandleText(
        http::BuildGetRequest(target, {{"Host", "ACME.Example:8080"}}),
        "10.1.2.3");
    EXPECT_EQ(a.Serialize(), b.Serialize()) << target;
  }

  // Decision attribution is byte-identical too: same provenance names
  // ("system#0", "local:/"), same entry indices, same condition — the only
  // divergence is the tenant label itself.
  auto da = single.audit_log().ByCategory("decision");
  auto db = multi.audit_log().ByCategory("decision");
  ASSERT_EQ(da.size(), db.size());
  ASSERT_FALSE(da.empty());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].message, db[i].message);
    EXPECT_EQ(da[i].decision, db[i].decision);
    EXPECT_EQ(da[i].policy, db[i].policy);
    EXPECT_EQ(da[i].entry, db[i].entry);
    EXPECT_EQ(da[i].condition, db[i].condition);
    EXPECT_EQ(da[i].client, db[i].client);
    EXPECT_EQ(da[i].tenant, "");
    EXPECT_EQ(db[i].tenant, "acme");
  }
}

// --- Host routing through the full integration -------------------------------

TEST(TenantRouting, HostVariantsDocRootsAndStatusView) {
  http::DocTree tree = http::DocTree::DemoSite();
  tree.AddDocument("/tenants/acme/index.html",
                   {"<html><body>acme tenant home</body></html>"});
  web::GaaWebServer server(std::move(tree));
  ASSERT_TRUE(server.SetLocalPolicy("/", kGrant).ok());
  ASSERT_TRUE(
      server.AddTenant("acme", "WWW.Acme.COM:8080", "/tenants/acme").ok());

  // Case, port and trailing-dot variants of the registered Host all land in
  // the tenant's doc root; the same logical path serves tenant content.
  for (const char* host :
       {"www.acme.com", "WWW.ACME.COM", "www.acme.com:443", "www.Acme.com."}) {
    auto r = server.HandleText(
        http::BuildGetRequest("/index.html", {{"Host", host}}), "10.1.2.3");
    EXPECT_EQ(r.status, http::StatusCode::kOk) << host;
    EXPECT_NE(r.BodyView().find("acme tenant home"),
              std::string_view::npos)
        << host;
  }

  // An unrouted Host stays in the default namespace and shared tree.
  auto def = server.HandleText(
      http::BuildGetRequest("/index.html", {{"Host", "other.example"}}),
      "10.1.2.3");
  EXPECT_EQ(def.status, http::StatusCode::kOk);
  EXPECT_NE(def.BodyView().find("Welcome to the demo site"),
            std::string_view::npos);

  // Flip the unknown-host policy: unclaimed Hosts are misdirected (421),
  // registered ones still resolve.
  server.set_unknown_host_policy(
      http::TenantRouter::UnknownHostPolicy::kReject);
  auto rejected = server.HandleText(
      http::BuildGetRequest("/index.html", {{"Host", "other.example"}}),
      "10.1.2.3");
  EXPECT_EQ(rejected.status, http::StatusCode::kMisdirectedRequest);
  auto routed = server.HandleText(
      http::BuildGetRequest("/index.html", {{"Host", "www.acme.com"}}),
      "10.1.2.3");
  EXPECT_EQ(routed.status, http::StatusCode::kOk);

  // The tenants status view reports the namespace and the IR store's dedup
  // counters.
  auto status = server.HandleText(
      http::BuildGetRequest("/__status/tenants", {{"Host", "www.acme.com"}}),
      "10.1.2.3");
  EXPECT_EQ(status.status, http::StatusCode::kOk);
  EXPECT_NE(status.BodyView().find("\"name\":\"acme\""),
            std::string_view::npos);
  EXPECT_NE(status.BodyView().find("\"ir_store\""), std::string_view::npos);
  EXPECT_NE(status.BodyView().find("\"routes\":1"), std::string_view::npos);
  // The tenant was added after the last global mutation; the gauge still
  // counts it.
  EXPECT_EQ(
      server.telemetry().registry().GetGauge("gaa_tenant_count")->Value(), 1);
}

TEST(TenantRouting, PerTenantRequestCounterIsLabeled) {
  web::GaaWebServer server(http::DocTree::DemoSite());
  ASSERT_TRUE(server.SetLocalPolicy("/", kGrant).ok());
  ASSERT_TRUE(server.AddTenant("acme", "acme.example").ok());

  (void)server.Get("/index.html", "10.1.2.3");
  (void)server.HandleText(
      http::BuildGetRequest("/index.html", {{"Host", "acme.example"}}),
      "10.1.2.3");

  auto* reg = &server.telemetry().registry();
  auto* def = reg->GetCounter("tenant_requests_total", "tenant=\"default\"");
  auto* acme = reg->GetCounter("tenant_requests_total", "tenant=\"acme\"");
  ASSERT_NE(def, nullptr);
  ASSERT_NE(acme, nullptr);
  EXPECT_EQ(def->Value(), 1u);
  EXPECT_EQ(acme->Value(), 1u);
}

}  // namespace
}  // namespace gaa::core
