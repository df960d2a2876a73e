// E9 / §2 — the ZeroMQ role: zero-copy pub/sub between pipeline stages.
//
// Reports in-proc publish throughput vs payload size and subscriber
// count, the HWM drop behaviour under an absent consumer (the
// publisher must never block), and how fast a publish wakes an idle
// consumer blocked in recv().

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "msg/codec.hpp"
#include "msg/pubsub.hpp"

namespace {

using namespace ruru;

Message make_message(std::size_t payload_size) {
  Message m("ruru.latency");
  m.add(Frame::adopt(std::vector<std::uint8_t>(payload_size, 0xAB)));
  return m;
}

// Publish with one active consumer thread draining.
void BM_InprocPubSub(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  PubSocket pub;
  auto sub = pub.subscribe("", 1 << 14);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> received{0};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (sub->try_recv()) received.fetch_add(1, std::memory_order_relaxed);
    }
    while (sub->try_recv()) received.fetch_add(1, std::memory_order_relaxed);
  });

  const Message msg = make_message(payload);
  for (auto _ : state) {
    pub.publish(msg);  // shares frames; the copy happened once above
  }
  stop.store(true);
  consumer.join();

  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(payload));
  state.counters["delivered"] = static_cast<double>(sub->delivered());
  state.counters["hwm_dropped"] = static_cast<double>(sub->dropped());
}
BENCHMARK(BM_InprocPubSub)->Arg(64)->Arg(512)->Arg(4096)->ArgName("payload");

// Fan-out cost: one publish to N subscribers (each message shared, not
// copied — this measures queue insertion, not memcpy).
void BM_InprocFanout(benchmark::State& state) {
  const auto nsubs = static_cast<std::size_t>(state.range(0));
  PubSocket pub;
  std::vector<std::shared_ptr<Subscription>> subs;
  for (std::size_t i = 0; i < nsubs; ++i) subs.push_back(pub.subscribe("", 1 << 20));
  const Message msg = make_message(68);
  for (auto _ : state) {
    pub.publish(msg);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nsubs));
  // Confirm zero-copy: every queued message shares one buffer.
  state.counters["payload_use_count"] = static_cast<double>(msg.frames[1].use_count());
}
BENCHMARK(BM_InprocFanout)->Arg(1)->Arg(4)->Arg(16)->ArgName("subscribers");

// HWM policy: a stalled consumer must not slow the publisher down.
void BM_HwmDropUnderStall(benchmark::State& state) {
  PubSocket pub;
  auto sub = pub.subscribe("", 1024);  // nobody drains it
  const Message msg = make_message(68);
  for (auto _ : state) {
    pub.publish(msg);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dropped"] = static_cast<double>(sub->dropped());
  state.counters["delivered"] = static_cast<double>(sub->delivered());
}
BENCHMARK(BM_HwmDropUnderStall);

// Ablation (DESIGN.md §5): HWM drop vs block with a slow consumer. The
// drop policy (the bus's only policy) keeps the publisher at full speed
// and sheds load.  The block arm is a bench-local publisher that retries
// publish() with backoff until the subscriber accepts the message; it
// throttles to the consumer's pace — which on the capture path would
// mean dropping packets at the NIC instead.  `retries` counts the
// refused attempts (each one also shows in the subscriber's `dropped`).
void BM_HwmPolicyWithSlowConsumer(benchmark::State& state) {
  const bool block = state.range(0) == 1;
  PubSocket pub;
  auto sub = pub.subscribe("", 256);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (sub->try_recv()) {
        // ~2 us of "work" per message: slower than the publisher.
        const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(2);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
    }
  });

  const Message msg = make_message(68);
  std::uint64_t retries = 0;
  for (auto _ : state) {
    if (block) {
      // Spin, then yield, then sleep: the backoff of the blocking policy
      // the bus had before it only dropped.
      for (int attempt = 0; pub.publish(msg) == 0; ++attempt) {
        ++retries;
        if (attempt >= 96) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else if (attempt >= 64) {
          std::this_thread::yield();
        }
      }
    } else {
      pub.publish(msg);
    }
  }
  done.store(true);
  consumer.join();

  state.SetItemsProcessed(state.iterations());
  state.counters["delivered"] = static_cast<double>(sub->delivered());
  state.counters["dropped"] = static_cast<double>(sub->dropped());
  state.counters["retries"] = static_cast<double>(retries);
}
BENCHMARK(BM_HwmPolicyWithSlowConsumer)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("policy(0=drop,1=block)")
    ->UseRealTime();

// Idle-consumer wake latency: the consumer is blocked in recv() with
// the bus idle long enough that it has stopped polling and parked
// (1 ms per round, well past EventCount::kSpin), then one message is
// published.  Reports publish -> recv() return, p50 and p99 over the
// rounds; the timed loop itself is only the idle gaps.
void BM_IdleConsumerWakeLatency(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  PubSocket pub;
  auto sub = pub.subscribe("", 16);
  std::vector<double> wake_us;
  wake_us.reserve(static_cast<std::size_t>(state.max_iterations));
  std::atomic<std::int64_t> sent_ns{0};
  std::atomic<std::uint64_t> received{0};
  std::thread consumer([&] {
    while (sub->recv()) {
      const std::int64_t now = Clock::now().time_since_epoch().count();
      wake_us.push_back(static_cast<double>(now - sent_ns.load(std::memory_order_acquire)) /
                        1e3);
      received.fetch_add(1, std::memory_order_release);
    }
  });
  const Message msg = make_message(68);
  std::uint64_t sent = 0;
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sent_ns.store(Clock::now().time_since_epoch().count(), std::memory_order_release);
    pub.publish(msg);
    ++sent;
    while (received.load(std::memory_order_acquire) != sent) {
    }
  }
  pub.close_all();
  consumer.join();

  std::sort(wake_us.begin(), wake_us.end());
  const auto pct = [&](double q) {
    if (wake_us.empty()) return 0.0;
    return wake_us[static_cast<std::size_t>(q * static_cast<double>(wake_us.size() - 1))];
  };
  state.counters["wake_p50_us"] = pct(0.50);
  state.counters["wake_p99_us"] = pct(0.99);
  state.counters["rounds"] = static_cast<double>(wake_us.size());
}
BENCHMARK(BM_IdleConsumerWakeLatency)->Iterations(2000)->UseRealTime();

// The batched latency feed vs the seed per-sample path, measured in
// samples/sec end to end (encode → publish → recv → decode). batch=1
// reproduces the original one-message-per-sample behaviour; larger
// batches amortize the Message/Frame allocation, the queue insertion,
// and the consumer wakeup across N samples.
void BM_LatencyFeedPublish(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  PubSocket pub;
  auto sub = pub.subscribe(std::string(kLatencyTopic), 1 << 14);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> decoded_samples{0};
  std::thread consumer([&] {
    std::vector<LatencySample> decoded;
    decoded.reserve(kMaxLatencyBatch);
    const auto drain_one = [&](const Message& m) {
      decoded.clear();
      if (m.frames.size() >= 2 && decode_latency_payload(m.frames[1], decoded)) {
        decoded_samples.fetch_add(decoded.size(), std::memory_order_relaxed);
      }
    };
    while (!stop.load(std::memory_order_acquire)) {
      if (const auto m = sub->try_recv()) drain_one(*m);
    }
    while (const auto m = sub->try_recv()) drain_one(*m);
  });

  std::vector<LatencySample> samples(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    samples[i].client = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    samples[i].server = Ipv4Address(10, 2, 0, 1);
    samples[i].client_port = static_cast<std::uint16_t>(40'000 + i);
    samples[i].server_port = 443;
    samples[i].syn_time = Timestamp::from_ms(1);
    samples[i].synack_time = Timestamp::from_ms(120);
    samples[i].ack_time = Timestamp::from_ms(125);
  }

  for (auto _ : state) {
    if (batch == 1) {
      pub.publish(encode_latency_sample(samples[0]), 1);  // seed path
    } else {
      pub.publish(encode_latency_batch(samples), samples.size());
    }
  }
  stop.store(true);
  consumer.join();

  // Items are SAMPLES, so samples/sec is directly comparable across
  // batch sizes.
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
  state.counters["delivered_samples"] = static_cast<double>(sub->delivered());
  state.counters["dropped_samples"] = static_cast<double>(sub->dropped());
  state.counters["decoded_samples"] = static_cast<double>(decoded_samples.load());
}
BENCHMARK(BM_LatencyFeedPublish)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->ArgName("batch")
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
