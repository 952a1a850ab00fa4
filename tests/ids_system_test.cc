#include "ids/ids.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "testing/helpers.h"

namespace gaa::ids {
namespace {

using core::ReportKind;
using core::ThreatLevel;

class IdsSystemTest : public ::testing::Test {
 protected:
  IdsSystemTest() : clock_(0), state_(&clock_), ids_(&state_, &clock_) {
    ids_.AttachMetrics(&registry_);
  }

  core::IdsReport Attack(int severity, double confidence = 1.0) {
    core::IdsReport r;
    r.kind = ReportKind::kDetectedAttack;
    r.source_ip = "203.0.113.9";
    r.object = "/cgi-bin/phf";
    r.attack_type = "cgi_exploit";
    r.severity = severity;
    r.confidence = confidence;
    return r;
  }

  util::SimulatedClock clock_;
  core::SystemState state_;
  telemetry::MetricRegistry registry_;
  IntrusionDetectionSystem ids_;
};

TEST_F(IdsSystemTest, ReportsAccumulate) {
  ids_.Report(Attack(5));
  ids_.Report(Attack(7));
  EXPECT_EQ(testing::IdsReportCount(registry_), 2u);
  EXPECT_EQ(testing::IdsReportCount(registry_, ReportKind::kDetectedAttack),
            2u);
  EXPECT_EQ(testing::IdsReportCount(registry_, ReportKind::kIllFormedRequest),
            0u);
}

// Reports from four threads race the maintenance tick and alerts arriving
// from other cluster processes; every report is counted once and the
// level the threat window produces is the one SystemState holds.
TEST_F(IdsSystemTest, ConcurrentReportsTicksAndRemoteAlerts) {
  constexpr int kThreads = 4;
  constexpr int kReports = 2000;
  std::vector<std::thread> reporters;
  for (int t = 0; t < kThreads; ++t) {
    reporters.emplace_back([this, t] {
      core::IdsReport report = Attack(1, 0.01);
      for (int i = 0; i < kReports; ++i) {
        report.source_ip = "198.51." + std::to_string(t) + "." +
                           std::to_string(i % 250);
        ids_.Report(report);
      }
    });
  }
  std::thread maintenance([this] {
    for (int i = 0; i < kReports; ++i) {
      clock_.Advance(1000);
      ids_.PeriodicMaintenance();
      ids_.threat().ReportRemoteAlert(0.01);
    }
  });
  for (auto& reporter : reporters) reporter.join();
  maintenance.join();

  EXPECT_EQ(testing::IdsReportCount(registry_, ReportKind::kDetectedAttack),
            static_cast<std::uint64_t>(kThreads * kReports));
  // 10k alerts of 0.01 in a 2 s span: a score of 100, far past high.
  EXPECT_NEAR(ids_.threat().WindowScore(), 100.0, 1e-6);
  EXPECT_EQ(ids_.threat().level(), ThreatLevel::kHigh);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kHigh);
}

TEST_F(IdsSystemTest, AttackReportsEscalateThreatLevel) {
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
  ids_.Report(Attack(8));
  ids_.Report(Attack(8));
  EXPECT_GE(static_cast<int>(state_.threat_level()),
            static_cast<int>(ThreatLevel::kMedium));
  for (int i = 0; i < 4; ++i) ids_.Report(Attack(9));
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kHigh);
}

TEST_F(IdsSystemTest, LegitimatePatternsDoNotEscalate) {
  core::IdsReport r;
  r.kind = ReportKind::kLegitimatePattern;
  r.severity = 10;  // even a large value must not count
  r.confidence = 1.0;
  for (int i = 0; i < 20; ++i) ids_.Report(r);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
}

TEST_F(IdsSystemTest, ConfidenceWeighsSeverity) {
  ids_.Report(Attack(10, /*confidence=*/0.1));  // weight 1.0
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
}

TEST_F(IdsSystemTest, ReportsPublishOnTheBus) {
  std::vector<Event> events;
  ids_.bus().Subscribe({"gaa.report.*", 0},
                       [&](const Event& e) { events.push_back(e); });
  ids_.Report(Attack(6));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].topic, "gaa.report.detected_attack");
  EXPECT_NE(events[0].payload.find("203.0.113.9"), std::string::npos);
}

TEST_F(IdsSystemTest, SpoofingOracle) {
  EXPECT_FALSE(ids_.SuspectedSpoofing("1.2.3.4"));
  ids_.MarkSpoofedSource("1.2.3.4");
  EXPECT_TRUE(ids_.SuspectedSpoofing("1.2.3.4"));
  ids_.ClearSpoofedSources();
  EXPECT_FALSE(ids_.SuspectedSpoofing("1.2.3.4"));
}

TEST_F(IdsSystemTest, AdaptiveValuesTightenWithThreat) {
  ids_.RecomputeAdaptiveValues();
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "1000");

  ids_.threat().ForceLevel(ThreatLevel::kHigh);
  ids_.RecomputeAdaptiveValues();
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "200");
  EXPECT_EQ(state_.GetVariable("gaa.rate_limit").value(), "5");

  ids_.threat().ForceLevel(ThreatLevel::kMedium);
  ids_.RecomputeAdaptiveValues();
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "500");
}

TEST_F(IdsSystemTest, ReportTriggersAdaptiveRecompute) {
  for (int i = 0; i < 6; ++i) ids_.Report(Attack(9));
  ASSERT_EQ(state_.threat_level(), ThreatLevel::kHigh);
  // The report path recomputes adaptive values automatically.
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "200");
}

TEST_F(IdsSystemTest, PushAdaptiveValue) {
  ids_.PushAdaptiveValue("custom.threshold", "42");
  EXPECT_EQ(state_.GetVariable("custom.threshold").value(), "42");
}

}  // namespace
}  // namespace gaa::ids
