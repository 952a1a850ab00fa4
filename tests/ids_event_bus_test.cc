#include "ids/event_bus.h"

#include <gtest/gtest.h>

#include "telemetry/metrics.h"

namespace gaa::ids {
namespace {

class EventBusTest : public ::testing::Test {
 protected:
  EventBusTest() : clock_(1000), bus_(&clock_) {}
  util::SimulatedClock clock_;
  EventBus bus_;
};

TEST_F(EventBusTest, DeliversToMatchingSubscriber) {
  std::vector<Event> received;
  bus_.Subscribe({"gaa.report.*", 0},
                 [&](const Event& e) { received.push_back(e); });
  bus_.Publish({"gaa.report.detected_attack", "gaa-api", 7, "payload", 0});
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].topic, "gaa.report.detected_attack");
  EXPECT_EQ(received[0].time_us, 1000);  // stamped by the bus
}

TEST_F(EventBusTest, TopicFilterExcludes) {
  int count = 0;
  bus_.Subscribe({"ids.alert.*", 0}, [&](const Event&) { ++count; });
  bus_.Publish({"gaa.report.detected_attack", "x", 5, "", 0});
  EXPECT_EQ(count, 0);
}

TEST_F(EventBusTest, SeverityFilterIsThePolicyControl) {
  // The "policy-controlled" subscription channel: min severity 5.
  std::vector<int> severities;
  bus_.Subscribe({"*", 5}, [&](const Event& e) { severities.push_back(e.severity); });
  bus_.Publish({"t", "s", 3, "", 0});
  bus_.Publish({"t", "s", 5, "", 0});
  bus_.Publish({"t", "s", 9, "", 0});
  EXPECT_EQ(severities, (std::vector<int>{5, 9}));
}

TEST_F(EventBusTest, MultipleSubscribersEachGetACopy) {
  telemetry::MetricRegistry registry;
  bus_.AttachMetrics(&registry);
  int a = 0, b = 0;
  bus_.Subscribe({"*", 0}, [&](const Event&) { ++a; });
  bus_.Subscribe({"*", 0}, [&](const Event&) { ++b; });
  bus_.Publish({"t", "s", 1, "", 0});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(registry.GetCounter("ids_events_published_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("ids_events_delivered_total")->Value(), 2u);
  bus_.AttachMetrics(nullptr);
}

TEST_F(EventBusTest, Unsubscribe) {
  int count = 0;
  auto id = bus_.Subscribe({"*", 0}, [&](const Event&) { ++count; });
  EXPECT_TRUE(bus_.Unsubscribe(id));
  EXPECT_FALSE(bus_.Unsubscribe(id));
  bus_.Publish({"t", "s", 1, "", 0});
  EXPECT_EQ(count, 0);
  EXPECT_EQ(bus_.subscriber_count(), 0u);
}

TEST_F(EventBusTest, CallbackMayPublish) {
  // Reentrancy: a subscriber reacting by publishing must not deadlock.
  int deep = 0;
  bus_.Subscribe({"first", 0}, [&](const Event&) {
    bus_.Publish({"second", "s", 1, "", 0});
  });
  bus_.Subscribe({"second", 0}, [&](const Event&) { ++deep; });
  bus_.Publish({"first", "s", 1, "", 0});
  EXPECT_EQ(deep, 1);
}

TEST_F(EventBusTest, PresetTimestampIsKept) {
  std::vector<Event> received;
  bus_.Subscribe({"*", 0}, [&](const Event& e) { received.push_back(e); });
  bus_.Publish({"t", "s", 1, "", 777});
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].time_us, 777);
}

}  // namespace
}  // namespace gaa::ids
