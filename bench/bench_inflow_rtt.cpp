// In-flow RTT kernel cost (DESIGN.md §5j acceptance) — what continuous
// TCP-timestamp matching adds to the worker fast path.
//
// Three modes over the same pre-generated trans-Pacific trace:
//   off   — in-flow kernel disabled, pre-parse fast path on: the
//           previous skip path (established-flow data segments bypass
//           both parse and tracker).  This is the baseline the
//           acceptance gate compares against (>= 0.95x required).
//   on    — kernel enabled, fast path on: data segments of tracked
//           flows take the fixed-offset timestamp probe + ring match
//           instead of the skip.
//   full  — kernel enabled, fast path off: every segment fully parsed,
//           the upper bound the probe path must beat.
//
// A second bench isolates the matching kernel itself: process_burst on
// a resident table of established flows, every packet a timestamped
// data segment (the worst case: nothing can be skipped).

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "bench_util.hpp"
#include "driver/eal.hpp"
#include "flow/worker.hpp"
#include "net/packet_builder.hpp"

namespace {

using namespace ruru;

const std::vector<TimedFrame>& trace() {
  static const std::vector<TimedFrame> frames = [] {
    // Background flows plus one long-lived transfer so the trace carries
    // genuine mid-flow echo traffic, not just handshakes.
    auto model = scenarios::inflow_shift(0x1F10, 1200.0, Duration::from_sec(5.0),
                                         Timestamp::from_sec(2.5), Duration::from_ms(40));
    return ruru::bench::pregenerate(model);
  }();
  return frames;
}

// mode: 0 = off+fast, 1 = on+fast, 2 = on+full-parse.
void BM_WorkerInflowModes(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const auto& frames = trace();

  std::uint64_t matches = 0;
  std::uint64_t inflow_samples = 0;
  std::uint64_t evictions = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t skips = 0;
  std::uint64_t consumed = 0;
  for (auto _ : state) {
    Mempool pool(1 << 15, 2048);
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);

    InflowConfig icfg;
    icfg.enabled = mode != 0;
    std::uint64_t samples = 0;
    QueueWorker worker(
        nic, 0, 1 << 14, [&samples](const LatencySample&) { ++samples; },
        Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow, icfg);
    worker.set_fast_path(mode != 2);

    std::size_t pending = 0;
    for (const auto& f : frames) {
      while (!ruru::bench::inject_one(nic, f.frame, f.timestamp)) worker.poll_once();
      if (++pending >= 64) {
        worker.poll_once();
        pending = 0;
      }
    }
    while (worker.poll_once() != 0) {
    }

    const InflowStats& st = worker.tracker().inflow_stats();
    matches += st.ts_matches.load();
    inflow_samples += st.inflow_samples.load();
    evictions += st.ts_ring_evictions.load();
    handshakes += worker.tracker_stats().samples_emitted.load();
    skips += worker.stats().fast_path_skips.load();
    consumed += worker.stats().inflow_consumed.load();
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  const auto iters = static_cast<double>(state.iterations());
  state.counters["ts_matches"] = static_cast<double>(matches) / iters;
  state.counters["inflow_samples"] = static_cast<double>(inflow_samples) / iters;
  state.counters["ring_evictions"] = static_cast<double>(evictions) / iters;
  state.counters["handshakes"] = static_cast<double>(handshakes) / iters;
  state.counters["fast_path_skips"] = static_cast<double>(skips) / iters;
  state.counters["inflow_consumed"] = static_cast<double>(consumed) / iters;
}
BENCHMARK(BM_WorkerInflowModes)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("mode")
    ->Unit(benchmark::kMillisecond);

// The acceptance gate: bench_fig2's exact workload (trans-Pacific trace,
// threaded per-queue workers) with the kernel off vs on.  "on" must hold
// >= 0.95x of "off" (the current skip-path numbers).
void BM_Fig2WithInflow(benchmark::State& state) {
  const bool inflow_on = state.range(0) != 0;
  constexpr std::uint16_t kQueues = 4;
  static const std::vector<TimedFrame>& frames = [] {
    static auto model = scenarios::transpacific(0xF162, 4000.0, Duration::from_sec(5.0));
    static const auto f = ruru::bench::pregenerate(model);
    return f;
  }();

  std::uint64_t samples = 0;
  std::uint64_t inflow_samples = 0;
  for (auto _ : state) {
    Mempool pool(1 << 16, 2048);
    NicConfig cfg;
    cfg.num_queues = kQueues;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);

    InflowConfig icfg;
    icfg.enabled = inflow_on;
    std::vector<std::unique_ptr<QueueWorker>> workers;
    std::atomic<std::uint64_t> sample_count{0};
    std::atomic<std::uint64_t> inflow_count{0};
    for (std::uint16_t q = 0; q < kQueues; ++q) {
      workers.push_back(std::make_unique<QueueWorker>(
          nic, q, 1 << 14,
          [&sample_count, &inflow_count](const LatencySample& s) {
            sample_count.fetch_add(1, std::memory_order_relaxed);
            if (s.kind != SampleKind::kHandshake)
              inflow_count.fetch_add(1, std::memory_order_relaxed);
          },
          Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow, icfg));
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
    samples += sample_count.load();
    inflow_samples += inflow_count.load();
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  const auto iters = static_cast<double>(state.iterations());
  state.counters["samples"] = static_cast<double>(samples) / iters;
  state.counters["inflow_samples"] = static_cast<double>(inflow_samples) / iters;
}
BENCHMARK(BM_Fig2WithInflow)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("inflow")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Worst case for the kernel: every packet is a timestamped data segment
// of an established, table-resident flow — each one runs the probe, the
// ring match and a note, nothing is skippable.  Per-packet cost here is
// the kernel's ceiling.
void BM_InflowKernelSaturated(benchmark::State& state) {
  constexpr int kFlows = 256;
  std::vector<std::vector<std::uint8_t>> setup;
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < kFlows; ++i) {
    const auto client =
        Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 6), static_cast<std::uint8_t>(i & 63));
    const auto server = Ipv4Address(10, 2, 0, 1);
    const auto cport = static_cast<std::uint16_t>(40'000 + i);
    auto tcp = [&](bool c2s, std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                   std::uint32_t tsval, std::uint32_t tsecr, std::size_t payload,
                   std::vector<std::vector<std::uint8_t>>& out) {
      TcpFrameSpec s;
      s.src_ip = c2s ? client : server;
      s.dst_ip = c2s ? server : client;
      s.src_port = c2s ? cport : 443;
      s.dst_port = c2s ? 443 : cport;
      s.flags = flags;
      s.seq = seq;
      s.ack = ack;
      s.payload_length = payload;
      s.with_timestamps = true;
      s.ts_val = tsval;
      s.ts_ecr = tsecr;
      out.push_back(build_tcp_frame(s));
    };
    tcp(true, TcpFlags::kSyn, 1000, 0, 100, 0, 0, setup);
    tcp(false, TcpFlags::kSyn | TcpFlags::kAck, 5000, 1001, 500, 100, 0, setup);
    tcp(true, TcpFlags::kAck, 1001, 5001, 105, 500, 0, setup);
    // Advancing TSvals round to round (a repeated value would trip the
    // retransmission guard and stop the noting).  Each round's response
    // consumes the request's note and the next request consumes the
    // response's, so ring occupancy stays flat.
    constexpr std::uint32_t kRounds = 16;
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      tcp(true, TcpFlags::kAck, 1001, 5001, 200 + r, r == 0 ? 0 : 600 + r - 1, 512, data);
      tcp(false, TcpFlags::kAck, 5001, 1513, 600 + r, 200 + r, 512, data);
    }
  }

  Mempool pool(1 << 14, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_depth = 16384;
  SimNic nic(cfg, pool);
  InflowConfig icfg;
  icfg.enabled = true;
  icfg.min_interval = Duration{0};
  QueueWorker worker(nic, 0, 1 << 12, nullptr, Duration::from_sec(1e6),
                     FlowTable::kDefaultProbeWindow, icfg);

  std::int64_t t = 0;
  for (const auto& f : setup) {
    ruru::bench::inject_one(nic, f, Timestamp::from_ns(++t));
    worker.poll_once();
  }

  for (auto _ : state) {
    for (const auto& f : data) {
      while (!ruru::bench::inject_one(nic, f, Timestamp::from_ns(++t))) worker.poll_once();
    }
    while (worker.poll_once() != 0) {
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
  state.counters["ts_matches"] =
      static_cast<double>(worker.tracker().inflow_stats().ts_matches.load());
}
BENCHMARK(BM_InflowKernelSaturated)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
