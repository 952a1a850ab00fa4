// Thread-safety tests: server workers evaluate policies concurrently while
// the IDS adjusts the threat level and the policy officer rewrites
// policies — the deployment concurrency the paper's Apache integration
// lived under (multi-process Apache; multi-threaded here).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "http/doc_tree.h"
#include "integration/gaa_web_server.h"

namespace gaa::web {
namespace {

using http::StatusCode;

TEST(Concurrency, ParallelRequestsAreAllDecided) {
  GaaWebServer::Options options;
  options.use_real_clock = true;
  options.notification_latency_us = 0;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf*
pos_access_right apache *
)")
                  .ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> ok{0};
  std::atomic<int> denied{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        bool attack = (i % 4) == 0;
        std::string ip = "10.0." + std::to_string(t) + "." +
                         std::to_string(1 + i % 250);
        auto response = attack
                            ? server.Get("/cgi-bin/phf?q=" + std::to_string(i), ip)
                            : server.Get("/index.html", ip);
        if (response.status == StatusCode::kOk) {
          ok.fetch_add(1);
        } else if (response.status == StatusCode::kForbidden) {
          denied.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load(), kThreads * kPerThread * 3 / 4);
  EXPECT_EQ(denied.load(), kThreads * kPerThread / 4);
  EXPECT_EQ(server.server().requests_served(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Concurrency, PolicyUpdatesDuringTraffic) {
  GaaWebServer::Options options;
  options.use_real_clock = true;
  options.notification_latency_us = 0;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server.SetLocalPolicy("/", "pos_access_right apache *\n").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> decided{0};
  std::atomic<int> weird{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        auto response = server.Get("/index.html", "10.0.0.1");
        // Depending on which policy version this request saw, the answer
        // is allow or deny — never anything else, never a crash.
        if (response.status == StatusCode::kOk ||
            response.status == StatusCode::kForbidden) {
          decided.fetch_add(1);
        } else {
          weird.fetch_add(1);
        }
      }
    });
  }

  for (int flip = 0; flip < 50; ++flip) {
    const char* policy = (flip % 2 == 0) ? "neg_access_right apache *\n"
                                         : "pos_access_right apache *\n";
    ASSERT_TRUE(server.SetLocalPolicy("/", policy).ok());
    server.state().SetThreatLevel(flip % 3 == 0 ? core::ThreatLevel::kHigh
                                                : core::ThreatLevel::kLow);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(weird.load(), 0);
  EXPECT_GT(decided.load(), 0);
}

TEST(Concurrency, SharedStateCountersUnderContention) {
  util::SimulatedClock clock(0);
  core::SystemState state(&clock);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        state.RecordEvent("shared", 3600 * util::kMicrosPerSecond);
        state.AddGroupMember("G", std::to_string(t * kPerThread + i));
        state.SetVariable("v" + std::to_string(t), std::to_string(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(state.CountEvents("shared", 3600 * util::kMicrosPerSecond),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(state.GroupSize("G"),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Concurrency, BlacklistResponseRaces) {
  // Many threads attack simultaneously from the same source; exactly the
  // denials happen, the blacklist ends with one entry, and nothing tears.
  GaaWebServer::Options options;
  options.use_real_clock = true;
  options.notification_latency_us = 0;
  GaaWebServer server(http::DocTree::DemoSite(), options);
  ASSERT_TRUE(server
                  .AddSystemPolicy(R"(
eacl_mode 1
neg_access_right * *
pre_cond_accessid GROUP local BadGuys
)")
                  .ok());
  ASSERT_TRUE(server
                  .SetLocalPolicy("/", R"(
neg_access_right apache *
pre_cond_regex gnu *phf*
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)")
                  .ok());

  std::vector<std::thread> attackers;
  std::atomic<int> forbidden{0};
  for (int t = 0; t < 8; ++t) {
    attackers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto response = server.Get("/cgi-bin/phf?q=x", "203.0.113.9");
        if (response.status == StatusCode::kForbidden) forbidden.fetch_add(1);
      }
    });
  }
  for (auto& thread : attackers) thread.join();
  EXPECT_EQ(forbidden.load(), 8 * 50);
  EXPECT_EQ(server.state().GroupSize("BadGuys"), 1u);
}

}  // namespace
}  // namespace gaa::web
