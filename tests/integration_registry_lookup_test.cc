// A warm serving path looks no metric series up by string: the HTTP status,
// decision, entry-attribution, condition-latency and IDS-report series are
// all reached through held handles, so MetricRegistry::lookups() stays flat
// across memo hits, memo misses, a denied attack that files an IDS report,
// and methods other than GET.
#include <gtest/gtest.h>

#include <string>

#include "http/doc_tree.h"
#include "http/response.h"
#include "integration/gaa_web_server.h"
#include "testing/helpers.h"

namespace gaa::web {
namespace {

using http::StatusCode;

// Under /cgi-bin, perfbench's signature policy: the phf probe is denied by
// a regex condition that files a detected-attack report.  Everywhere else a
// pure grant, so benign GETs memoize per client.
constexpr const char* kSignaturePolicy = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
pos_access_right apache *
)";

std::uint64_t CounterValue(telemetry::MetricRegistry& registry,
                           const std::string& name,
                           const std::string& labels) {
  for (const auto& e : registry.List()) {
    if (e.name == name && e.labels == labels && e.counter != nullptr) {
      return e.counter->Value();
    }
  }
  return 0;
}

TEST(RegistryLookups, WarmServingPathLooksNothingUp) {
  GaaWebServer server(http::DocTree::DemoSite());
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());
  ASSERT_TRUE(server.SetLocalPolicy("/cgi-bin", kSignaturePolicy).ok());
  telemetry::MetricRegistry& registry = server.telemetry().registry();

  auto round = [&](int i) {
    // Memo miss: a client address the memo has not seen.
    EXPECT_EQ(server.Get("/index.html", "10.1." + std::to_string(i / 250) +
                                            "." + std::to_string(i % 250))
                  .status,
              StatusCode::kOk);
    // Memo hit: the same client every round.
    EXPECT_EQ(server.Get("/index.html", "10.0.0.1").status, StatusCode::kOk);
    // Denied attack: the regex condition files an IDS report.
    EXPECT_EQ(server.Get("/cgi-bin/phf?Qalias=x", "203.0.113.9").status,
              StatusCode::kForbidden);
    // Methods beyond GET/HEAD/POST still reach a held decision handle.
    server.HandleText("HEAD /index.html HTTP/1.0\r\n\r\n", "10.0.0.1");
    server.HandleText("OPTIONS /index.html HTTP/1.0\r\n\r\n", "10.0.0.1");
  };

  round(0);
  round(1);
  const std::uint64_t reports = testing::IdsReportCount(registry);
  const std::uint64_t options_decisions =
      CounterValue(registry, "gaa_decisions_total",
                   "right=\"OPTIONS\",outcome=\"yes\"");
  const std::uint64_t before = registry.lookups();

  for (int i = 2; i < 50; ++i) round(i);

  EXPECT_EQ(registry.lookups(), before)
      << "a warm request or report looked a series up by string";
  // The loop really took the paths it claims to.
  EXPECT_EQ(testing::IdsReportCount(registry), reports + 48);
  EXPECT_EQ(CounterValue(registry, "gaa_decisions_total",
                         "right=\"OPTIONS\",outcome=\"yes\""),
            options_decisions + 48);
  EXPECT_GE(CounterValue(registry, "gaa_decision_cache_hits_total", ""), 48u);
  EXPECT_GE(CounterValue(registry, "gaa_decision_cache_misses_total", ""),
            48u);
}

}  // namespace
}  // namespace gaa::web
