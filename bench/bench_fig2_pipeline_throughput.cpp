// E2 / Figure 2 — pipeline throughput vs RSS queue count.
//
// Paper claim: symmetric RSS over multiple DPDK queues with per-core
// processing threads lets Ruru tap a 10 Gbit/s link.  This bench blasts
// a pre-generated trans-Pacific trace through SimNic + per-queue workers
// and reports sustained packet and bit rates as queues scale 1..8, plus
// a frame-size sweep (min-size vs MTU frames).  Expected shape: rates
// high enough for 10G-class traffic; scaling limited by available cores
// (this reproduction runs on however many cores the host has).

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "driver/eal.hpp"
#include "flow/worker.hpp"
#include "msg/codec.hpp"
#include "msg/pubsub.hpp"
#include "net/packet_builder.hpp"

namespace {

using namespace ruru;

const std::vector<TimedFrame>& trace() {
  static const std::vector<TimedFrame> frames = [] {
    auto model = scenarios::transpacific(0xF162, 4000.0, Duration::from_sec(5.0));
    return ruru::bench::pregenerate(model);
  }();
  return frames;
}

void BM_PipelineThroughputVsQueues(benchmark::State& state) {
  const auto num_queues = static_cast<std::uint16_t>(state.range(0));
  const auto& frames = trace();

  std::uint64_t total_bytes = 0;
  std::uint64_t samples = 0;
  std::uint64_t drops = 0;
  for (auto _ : state) {
    Mempool pool(1 << 16, 2048);
    NicConfig cfg;
    cfg.num_queues = num_queues;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);

    std::vector<std::unique_ptr<QueueWorker>> workers;
    std::atomic<std::uint64_t> sample_count{0};
    for (std::uint16_t q = 0; q < num_queues; ++q) {
      workers.push_back(std::make_unique<QueueWorker>(
          nic, q, 1 << 14,
          [&sample_count](const LatencySample&) {
            sample_count.fetch_add(1, std::memory_order_relaxed);
          }));
    }
    LcoreLauncher lcores;
    for (auto& w : workers) {
      QueueWorker* wp = w.get();
      lcores.launch([wp](std::uint32_t, const std::atomic<bool>& stop) { wp->run(stop); });
    }

    std::uint64_t bytes = 0;
    for (const auto& f : frames) {
      while (!ruru::bench::inject_one(nic, f.frame, f.timestamp)) {
        // NIC full: spin until a worker drains (lossless for accuracy).
      }
      bytes += f.frame.size();
    }
    lcores.stop_and_join();
    total_bytes += bytes;
    samples += sample_count.load();
    drops += nic.stats().dropped_queue_full + nic.stats().dropped_no_mbuf;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(total_bytes));
  state.counters["gbps"] = benchmark::Counter(static_cast<double>(total_bytes) * 8.0,
                                              benchmark::Counter::kIsRate,
                                              benchmark::Counter::kIs1000);
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  state.counters["handshakes"] = static_cast<double>(samples) / static_cast<double>(state.iterations());
  state.counters["drops"] = static_cast<double>(drops);
}
BENCHMARK(BM_PipelineThroughputVsQueues)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("queues")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Injection-batching sweep at fixed queue count: burst=1 injects one
// frame per call, burst=32 stages mbufs per queue and
// publishes each queue's run with one release store. Items/sec is
// packets/sec through the capture front end; `samples_per_sec` reports
// the measurement rate alongside it. Each burst is capped at the NIC's
// free room (lossless), so handshake counts stay comparable across
// burst sizes.
void BM_PipelineThroughputVsBurst(benchmark::State& state) {
  const auto burst_size = static_cast<std::size_t>(state.range(0));
  constexpr std::uint16_t kQueues = 4;
  const auto& frames = trace();

  std::uint64_t samples = 0;
  std::uint64_t drops = 0;
  for (auto _ : state) {
    Mempool pool(1 << 16, 2048);
    NicConfig cfg;
    cfg.num_queues = kQueues;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);

    std::vector<std::unique_ptr<QueueWorker>> workers;
    std::atomic<std::uint64_t> sample_count{0};
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      workers.push_back(std::make_unique<QueueWorker>(
          nic, q, 1 << 14,
          [&sample_count](const LatencySample&) {
            sample_count.fetch_add(1, std::memory_order_relaxed);
          }));
    }
    LcoreLauncher lcores;
    for (auto& w : workers) {
      QueueWorker* wp = w.get();
      lcores.launch([wp](std::uint32_t, const std::atomic<bool>& stop) { wp->run(stop); });
    }

    std::vector<RxFrame> burst;
    burst.reserve(burst_size);
    const auto flush = [&] {
      for (std::span<const RxFrame> rest(burst); !rest.empty();) {
        std::size_t room = 0;
        while ((room = nic.room()) == 0) {
          // NIC full: spin until a worker drains (lossless for accuracy).
        }
        const std::size_t n = std::min(rest.size(), room);
        nic.inject_burst(rest.first(n));
        rest = rest.subspan(n);
      }
      burst.clear();
    };
    for (const auto& f : frames) {
      burst.push_back({f.frame, f.timestamp});
      if (burst.size() == burst_size) flush();
    }
    flush();
    lcores.stop_and_join();
    samples += sample_count.load();
    drops += nic.stats().dropped_queue_full + nic.stats().dropped_no_mbuf;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  state.counters["handshakes"] =
      static_cast<double>(samples) / static_cast<double>(state.iterations());
  state.counters["retried"] = static_cast<double>(drops);
}
BENCHMARK(BM_PipelineThroughputVsBurst)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->ArgName("burst")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Frame-size sweep: raw RX path cost for 64B-1500B frames (single queue,
// inline worker poll — isolates per-packet cost from thread scheduling).
void BM_RxPathVsFrameSize(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = Ipv4Address(10, 2, 0, 1);
  spec.src_port = 40'000;
  spec.dst_port = 443;
  spec.flags = TcpFlags::kAck;
  spec.seq = 1;
  spec.ack = 1;
  spec.payload_length = payload;
  const auto frame = build_tcp_frame(spec);

  Mempool pool(8192, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, pool);
  QueueWorker worker(nic, 0, 1 << 12, nullptr);

  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) ruru::bench::inject_one(nic, frame, Timestamp::from_ns(++t));
    while (worker.poll_once() != 0) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetBytesProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(frame.size()));
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_RxPathVsFrameSize)
    ->Arg(0)      // 54B frame (min-ish)
    ->Arg(512)
    ->Arg(1446)   // 1500B frame
    ->ArgName("payload");

// Capture → bus → decode with the batched publish path, batch=1 (the
// seed's one-message-per-sample behaviour) vs batch=32. Reports
// samples/sec through the whole feed and proves sample conservation:
// every sample a worker emitted is either delivered or dropped at the
// HWM — never silently lost in the batching layer.
void BM_PipelineBusBatching(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  constexpr std::uint16_t kQueues = 2;
  const auto& frames = trace();

  std::uint64_t emitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t decoded_total = 0;
  bool conserved = true;
  for (auto _ : state) {
    Mempool pool(1 << 16, 2048);
    NicConfig cfg;
    cfg.num_queues = kQueues;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);

    PubSocket bus;
    auto sub = bus.subscribe(std::string(kLatencyTopic), 1 << 14);
    std::atomic<std::uint64_t> decoded_samples{0};
    std::thread consumer([&] {
      std::vector<LatencySample> decoded;
      decoded.reserve(kMaxLatencyBatch);
      while (const auto m = sub->recv()) {
        decoded.clear();
        if (m->frames.size() >= 2 && decode_latency_payload(m->frames[1], decoded)) {
          decoded_samples.fetch_add(decoded.size(), std::memory_order_relaxed);
        }
      }
    });

    std::vector<std::unique_ptr<QueueWorker>> workers;
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      auto w = std::make_unique<QueueWorker>(nic, q, 1 << 14, nullptr);
      w->set_batch_sink(
          [&bus](std::span<const LatencySample> samples) {
            bus.publish(encode_latency_batch(samples), samples.size());
          },
          batch);
      workers.push_back(std::move(w));
    }
    LcoreLauncher lcores;
    for (auto& w : workers) {
      QueueWorker* wp = w.get();
      lcores.launch([wp](std::uint32_t, const std::atomic<bool>& stop) { wp->run(stop); });
    }

    for (const auto& f : frames) {
      while (!ruru::bench::inject_one(nic, f.frame, f.timestamp)) {
      }
    }
    lcores.stop_and_join();
    bus.close_all();
    consumer.join();

    std::uint64_t iter_emitted = 0;
    for (const auto& w : workers) iter_emitted += w->stats().batched_samples;
    emitted += iter_emitted;
    delivered += sub->delivered();
    dropped += sub->dropped();
    decoded_total += decoded_samples.load();
    conserved = conserved && iter_emitted == sub->delivered() + sub->dropped() &&
                decoded_samples.load() == sub->delivered();
  }

  // Items are SAMPLES through the bus: comparable across batch sizes.
  state.SetItemsProcessed(static_cast<std::int64_t>(emitted));
  state.counters["samples"] = static_cast<double>(emitted) / static_cast<double>(state.iterations());
  state.counters["delivered"] = static_cast<double>(delivered);
  state.counters["hwm_dropped"] = static_cast<double>(dropped);
  state.counters["decoded"] = static_cast<double>(decoded_total);
  state.counters["conserved"] = conserved ? 1.0 : 0.0;
}
BENCHMARK(BM_PipelineBusBatching)
    ->Arg(1)
    ->Arg(32)
    ->ArgName("batch")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Instrumentation overhead: the full pipeline (capture → workers → bus
// → enrichment → sinks) with the telemetry layer off vs on.  "On" means
// the hot-path histograms record every poll/batch/enrich, every bus
// message is wall-clock stamped, transit is sampled 1-in-16, and the
// snapshot thread exports 4×/s.  Target: <2% drop in packets/sec.
void BM_FullPipelineMetricsOverhead(benchmark::State& state) {
  const bool metrics_on = state.range(0) != 0;
  const auto& frames = trace();
  static const World world = ruru::bench::scenario_world();

  std::uint64_t samples = 0;
  for (auto _ : state) {
    PipelineConfig cfg;
    cfg.num_queues = 4;
    cfg.queue_depth = 16384;
    cfg.enrichment_threads = 2;
    cfg.metrics_enabled = metrics_on;
    cfg.metrics_interval = Duration::from_ms(250);
    RuruPipeline pipeline(cfg, world.geo, world.as);
    pipeline.start();
    for (const auto& f : frames) {
      while (pipeline.nic().room() == 0) {
        // NIC full: wait for a worker, then offer the frame once.
      }
      ruru::bench::inject_one(pipeline, f.frame, f.timestamp);
    }
    pipeline.finish();
    samples += pipeline.summary().tracker.samples_emitted;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_FullPipelineMetricsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("metrics")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
