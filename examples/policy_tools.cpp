// Policy tooling: the automated policy-analysis tool the paper lists as
// future work ("the function of defining the order of EACL entries ...
// can be best served by an automated tool to ensure policy correctness and
// consistency", §2), plus an `explain` mode that prints the full
// condition-by-condition evaluation trace for a request.  The decision
// itself carries no trace; `explain` asks for one by pointing
// RequestContext::explain at a vector before authorizing.
//
//   policy_tools lint <policy-file>
//   policy_tools explain <policy-file> <object> <client-ip> [user]
//   policy_tools               # runs both modes on a built-in demo policy
#include <cstdio>
#include <cstring>
#include <vector>

#include "conditions/builtin.h"
#include "eacl/parser.h"
#include "eacl/printer.h"
#include "eacl/validate.h"
#include "gaa/api.h"
#include "gaa/policy_store.h"
#include "gaa/system_state.h"
#include "util/config.h"

namespace {

constexpr const char* kDemoPolicy = R"(
# Demo policy with deliberate mistakes for the linter to find.
neg_access_right apache *
pre_cond_regex gnu *phf*
pos_access_right apache *
pos_access_right apache GET         # unreachable: shadowed by the entry above
pre_cond_time local 09:00-17:00
neg_access_right apache *           # unreachable AND contradicts the grant
)";

int Lint(const std::string& text) {
  auto parsed = gaa::eacl::ParseEacl(text);
  if (!parsed.ok()) {
    std::printf("PARSE ERROR: %s\n", parsed.error().ToString().c_str());
    return 1;
  }
  auto valid = gaa::eacl::Validate(parsed.value());
  if (!valid.ok()) {
    std::printf("INVALID: %s\n", valid.error().ToString().c_str());
    return 1;
  }
  auto warnings = gaa::eacl::AnalyzePolicy(parsed.value());
  std::printf("%zu entr%s, %zu warning%s\n", parsed.value().entries.size(),
              parsed.value().entries.size() == 1 ? "y" : "ies",
              warnings.size(), warnings.size() == 1 ? "" : "s");
  for (const auto& warning : warnings) {
    std::printf("  [%s] %s\n",
                gaa::eacl::PolicyWarningKindName(warning.kind),
                warning.message.c_str());
  }
  return warnings.empty() ? 0 : 2;
}

int Explain(const std::string& text, const std::string& object,
            const std::string& client_ip, const std::string& user) {
  gaa::util::SimulatedClock clock(1053345600LL * gaa::util::kMicrosPerSecond);
  gaa::core::SystemState state(&clock);
  gaa::core::EvalServices services;
  services.state = &state;
  services.clock = &clock;

  gaa::core::PolicyStore store;
  auto added = store.SetLocalPolicy("/", text);
  if (!added.ok()) {
    std::printf("PARSE ERROR: %s\n", added.error().ToString().c_str());
    return 1;
  }

  gaa::core::GaaApi api(&store, services);
  gaa::core::RoutineCatalog catalog;
  gaa::cond::RegisterBuiltinRoutines(catalog);
  auto init = api.Initialize(catalog, gaa::cond::DefaultConfigText(), "");
  if (!init.ok()) {
    std::printf("INIT ERROR: %s\n", init.error().ToString().c_str());
    return 1;
  }

  gaa::core::RequestContext ctx;
  ctx.application = "apache";
  ctx.operation = "GET";
  ctx.object = object;
  ctx.raw_url = object;
  ctx.client_ip = gaa::util::Ipv4Address::Parse(client_ip).value_or(
      gaa::util::Ipv4Address(0));
  if (!user.empty()) {
    ctx.authenticated = true;
    ctx.user = user;
  }

  std::vector<gaa::core::CondTrace> trace;
  ctx.explain = &trace;
  auto authz = api.Authorize(object, {"apache", "GET"}, ctx);
  std::printf("request: GET %s from %s%s%s\n", object.c_str(),
              client_ip.c_str(), user.empty() ? "" : " as ",
              user.c_str());
  std::printf("decision: %s%s\n", gaa::util::TristateName(authz.status),
              authz.applicable ? "" : " (no applicable entry: default deny)");
  std::printf("\nevaluation trace (%zu conditions):\n", trace.size());
  for (const auto& step : trace) {
    std::printf("  [%-14s] %-50s -> %-5s %s\n",
                gaa::eacl::CondPhaseName(step.phase),
                gaa::eacl::PrintCondition(step.cond).c_str(),
                gaa::util::TristateName(step.outcome.status),
                step.outcome.detail.c_str());
  }
  if (!authz.unevaluated.empty()) {
    std::printf("\nunevaluated conditions (drive 401/302 translation):\n");
    for (const auto& cond : authz.unevaluated) {
      std::printf("  %s\n", gaa::eacl::PrintCondition(cond).c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "lint") == 0) {
    auto text = gaa::util::ReadFileToString(argv[2]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().ToString().c_str());
      return 1;
    }
    return Lint(text.value());
  }
  if (argc >= 5 && std::strcmp(argv[1], "explain") == 0) {
    auto text = gaa::util::ReadFileToString(argv[2]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.error().ToString().c_str());
      return 1;
    }
    return Explain(text.value(), argv[3], argv[4],
                   argc >= 6 ? argv[5] : "");
  }

  // No arguments: demo both modes on the built-in policy.
  std::printf("== lint (built-in demo policy) ==\n");
  Lint(kDemoPolicy);
  std::printf("\n== explain: attacker probes /cgi-bin/phf ==\n");
  Explain(kDemoPolicy, "/cgi-bin/phf?Qalias=x", "203.0.113.9", "");
  std::printf("\n== explain: benign request inside office hours ==\n");
  Explain(kDemoPolicy, "/index.html", "10.0.0.1", "");
  std::printf(
      "\nusage:\n  policy_tools lint <policy-file>\n"
      "  policy_tools explain <policy-file> <object> <client-ip> [user]\n");
  return 0;
}
