// Blocking receive parks on the subscription's EventCount.  What these
// tests pin down:
//  * no lost wakeup: a publish that races a consumer's park (it lands
//    just before or after the consumer registers, or before its futex
//    sleep) still wakes it, over many rounds, with one consumer and with
//    two sharded ones;
//  * close() wakes a parked recv()/recv_shard() promptly;
//  * a parked consumer costs (almost) no CPU while the bus is idle.

#include "msg/pubsub.hpp"

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace ruru {

/// The park flag is not public API; these tests read it to time a
/// publish against a consumer's park.
struct SubscriptionTestAccess {
  static bool parked(const Subscription& sub) { return sub.wake_.parked(); }
};

namespace {

using Clock = std::chrono::steady_clock;

/// Far beyond any wake latency, even under a sanitizer: reaching it
/// means a consumer slept through a publish.
constexpr auto kDeadline = std::chrono::seconds(10);

Message msg(std::string_view topic, std::string_view payload) {
  Message m(topic);
  m.add(Frame::from_string(payload));
  return m;
}

template <typename Pred>
bool eventually(Pred pred) {
  const auto until = Clock::now() + kDeadline;
  while (!pred()) {
    if (Clock::now() > until) return false;
    std::this_thread::yield();
  }
  return true;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Ping-pong.  The consumer echoes each round number; a lost wakeup
// leaves a round unanswered until the deadline.  Two triggers alternate:
//  * even rounds publish as soon as a consumer has registered to park,
//    so the publish lands between the registration and the futex sleep,
//    or just after it;
//  * odd rounds publish on a sweep of offsets (-10..+10 us) around the
//    end of the consumer's spin window, so the publish lands just before
//    or just after the registration.
// With two shards, rounds go to each shard's lane in turn.
void ping_pong(std::size_t shards, int rounds) {
  PubSocket pub(/*default_hwm=*/16, /*fanin_lanes=*/shards > 1 ? shards : 0);
  auto sub = pub.subscribe("t");
  std::atomic<int> echoed{-1};
  std::vector<std::thread> consumers;
  for (std::size_t s = 0; s < shards; ++s) {
    consumers.emplace_back([&, s] {
      while (const auto m = sub->recv_shard(s, shards)) {
        echoed.store(std::stoi(std::string(m->frames[1].view())), std::memory_order_release);
      }
    });
  }
  int answered = 0;
  auto echo_seen = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      if (!eventually([&] { return SubscriptionTestAccess::parked(*sub); })) break;
    } else {
      const auto offset = std::chrono::nanoseconds(((r / 2) % 41 - 20) * 500);
      const auto at = echo_seen + EventCount::kSpin + offset;
      while (Clock::now() < at) {
      }
    }
    const Message m = msg("t", std::to_string(r));
    if (shards > 1) {
      pub.publish_lane(static_cast<std::size_t>(r) % shards, m);
    } else {
      pub.publish(m);
    }
    if (!eventually([&] { return echoed.load(std::memory_order_acquire) == r; })) break;
    echo_seen = Clock::now();
    ++answered;
  }
  pub.close_all();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(answered, rounds);
  EXPECT_EQ(sub->dropped(), 0u);
}

TEST(PubSubWait, NoLostWakeupWhenPublishRacesPark) { ping_pong(1, 2000); }

TEST(PubSubWait, NoLostWakeupWhenPublishRacesParkTwoShards) { ping_pong(2, 2000); }

TEST(PubSubWait, CloseWakesParkedRecvPromptly) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    PubSocket pub(/*default_hwm=*/16, /*fanin_lanes=*/2);
    auto sub = pub.subscribe("t");
    std::vector<Clock::time_point> returned_at(shards);
    std::atomic<int> got_message{0};
    std::vector<std::thread> consumers;
    for (std::size_t s = 0; s < shards; ++s) {
      consumers.emplace_back([&, s] {
        if (sub->recv_shard(s, shards)) got_message.fetch_add(1);
        returned_at[s] = Clock::now();
      });
    }
    ASSERT_TRUE(eventually([&] { return SubscriptionTestAccess::parked(*sub); }));
    // Well past EventCount::kSpin: every consumer is asleep, not spinning.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto closed_at = Clock::now();
    pub.close_all();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(got_message.load(), 0);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_LT(returned_at[s] - closed_at, std::chrono::milliseconds(100))
          << "shards=" << shards << " shard=" << s;
    }
  }
}

TEST(PubSubWait, IdleBlockedRecvUsesUnderOnePercentCpu) {
  PubSocket pub;
  auto sub = pub.subscribe("t");
  std::atomic<std::int64_t> cpu_ns{-1};
  std::atomic<std::int64_t> wall_ns{-1};
  std::thread consumer([&] {
    const auto wall0 = Clock::now();
    const std::int64_t cpu0 = thread_cpu_ns();
    const auto m = sub->recv();
    cpu_ns.store(thread_cpu_ns() - cpu0);
    wall_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - wall0)
                      .count());
    EXPECT_TRUE(m.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pub.publish(msg("t", "wake"));
  consumer.join();
  ASSERT_GE(wall_ns.load(), 150'000'000);
  EXPECT_LT(static_cast<double>(cpu_ns.load()), 0.01 * static_cast<double>(wall_ns.load()))
      << "cpu " << cpu_ns.load() << " ns over " << wall_ns.load() << " ns wall";
}

}  // namespace
}  // namespace ruru
