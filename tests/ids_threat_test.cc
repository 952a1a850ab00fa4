#include "ids/threat_service.h"

#include <gtest/gtest.h>

#include <string>

namespace gaa::ids {
namespace {

using core::ThreatLevel;

class ThreatServiceTest : public ::testing::Test {
 protected:
  ThreatServiceTest() : clock_(0), state_(&clock_) {}

  ThreatService::Options QuickOptions() {
    ThreatService::Options opts;
    opts.window_us = 60 * util::kMicrosPerSecond;
    opts.medium_score = 10.0;
    opts.high_score = 30.0;
    opts.decay_us = 120 * util::kMicrosPerSecond;
    return opts;
  }

  util::SimulatedClock clock_;
  core::SystemState state_;
};

TEST_F(ThreatServiceTest, StartsLow) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
}

TEST_F(ThreatServiceTest, EscalatesToMediumThenHigh) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(6.0);
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
  svc.ReportAlert(6.0);  // score 12 >= 10
  EXPECT_EQ(svc.level(), ThreatLevel::kMedium);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kMedium);
  svc.ReportAlert(10.0);
  svc.ReportAlert(10.0);  // score 32 >= 30
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
}

TEST_F(ThreatServiceTest, WindowScoreExpires) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(8.0);
  EXPECT_DOUBLE_EQ(svc.WindowScore(), 8.0);
  clock_.Advance(61 * util::kMicrosPerSecond);
  EXPECT_DOUBLE_EQ(svc.WindowScore(), 0.0);
}

TEST_F(ThreatServiceTest, DecaysOneNotchPerQuietPeriod) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(40.0);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  // Quiet for one decay period: high -> medium.
  clock_.Advance(125 * util::kMicrosPerSecond);
  svc.Tick();
  EXPECT_EQ(svc.level(), ThreatLevel::kMedium);
  // Another quiet period: medium -> low.
  clock_.Advance(125 * util::kMicrosPerSecond);
  svc.Tick();
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
}

TEST_F(ThreatServiceTest, NoDecayWhileAlertsKeepComing) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(40.0);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  for (int i = 0; i < 4; ++i) {
    clock_.Advance(30 * util::kMicrosPerSecond);
    svc.ReportAlert(40.0);
  }
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
}

TEST_F(ThreatServiceTest, ForceLevelOverrides) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ForceLevel(ThreatLevel::kHigh);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kHigh);
  svc.ForceLevel(ThreatLevel::kLow);
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
}

// The window is a ring of time buckets: an alert counts for at least
// window_us and for less than window_us plus one bucket width, wherever in
// its bucket it falls.  An alert filed as the first expires lands in the
// ring slot after it and must not evict it early.
TEST_F(ThreatServiceTest, AlertCountsForTheWindowAndExpiresWithinOneBucket) {
  for (util::DurationUs window :
       {60 * util::kMicrosPerSecond, util::DurationUs{1000}}) {
    ThreatService::Options opts = QuickOptions();
    opts.window_us = window;
    const util::DurationUs width =
        (window + ThreatService::kBuckets - 1) / ThreatService::kBuckets;
    for (util::DurationUs offset :
         {util::DurationUs{0}, width / 2, width - 1}) {
      SCOPED_TRACE("window " + std::to_string(window) + " offset " +
                   std::to_string(offset));
      util::SimulatedClock clock(10 * window + 7 * width + offset);
      ThreatService svc(&state_, &clock, opts);
      svc.ReportAlert(8.0);
      clock.Advance(window);
      svc.ReportAlert(1.0);
      EXPECT_DOUBLE_EQ(svc.WindowScore(), 9.0);
      clock.Advance(width);
      EXPECT_DOUBLE_EQ(svc.WindowScore(), 1.0);
    }
  }
}

TEST(ThreatLevelParse, Names) {
  EXPECT_EQ(core::ParseThreatLevel("low"), core::ThreatLevel::kLow);
  EXPECT_EQ(core::ParseThreatLevel("MEDIUM"), core::ThreatLevel::kMedium);
  EXPECT_EQ(core::ParseThreatLevel("High"), core::ThreatLevel::kHigh);
  EXPECT_FALSE(core::ParseThreatLevel("severe").has_value());
  EXPECT_STREQ(core::ThreatLevelName(core::ThreatLevel::kMedium), "medium");
}

}  // namespace
}  // namespace gaa::ids
