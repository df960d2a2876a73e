// Multi-core scale-out: capture -> flow -> bus -> enrichment at 1..8
// workers.
//
// Three angles, all on the same pre-generated trans-Pacific trace:
//
//  * BM_ScalingPipeline — the whole RuruPipeline with N RX queues and N
//    workers, fed by the one-producer burst replay (replay_scenario),
//    with per-worker bus publish lanes.  The run also asserts
//    bit-identical measurement output at every N: symmetric RSS puts
//    both directions of a flow on one queue, so the handshake/sample
//    counts must match the 1-worker run exactly (counter
//    `identical_to_1worker`).
//
//  * BM_ScalingShardMakespan — the scaling *model* honest on this
//    container: frames are partitioned with the NIC's own RSS steering
//    (hash_frame() % queues), then each shard is fed through
//    inject_burst and drained to completion by its own worker, timed
//    sequentially.  Aggregate rate = total frames / slowest shard (the
//    makespan a real N-core host would see, since workers share
//    nothing: per-queue rings, per-worker tables, per-lane bus queues).
//    This deliberately removes the host's scheduler interleaving from
//    the measurement; the environment block in BENCH_scaling.json
//    records the caveat.
//
//  * BM_SoakResidentFlows — millions of concurrent flows resident:
//    per-worker tables at 2M slots are filled to ~1.2M live handshakes
//    each and then probed at full load, shard by shard (makespan
//    model, one ~340MB table instantiated at a time).
//
// Expected shape: near-linear makespan scaling 1 -> 4 (shards share
// nothing), flattening only with RSS shard imbalance; identical sample
// counts at every N.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "driver/eal.hpp"
#include "flow/flow_table.hpp"
#include "flow/worker.hpp"

namespace {

using namespace ruru;

const std::vector<TimedFrame>& trace() {
  static const std::vector<TimedFrame> frames = [] {
    auto model = scenarios::transpacific(0xF162, 4000.0, Duration::from_sec(5.0));
    return ruru::bench::pregenerate(model);
  }();
  return frames;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- full pipeline, one-producer replay, determinism across N ---

void BM_ScalingPipeline(benchmark::State& state) {
  const auto workers = static_cast<std::uint16_t>(state.range(0));
  static const World world = ruru::bench::scenario_world();
  // Filled by the workers=1 run (registered first); later runs compare.
  static std::uint64_t ref_samples = 0;
  static std::uint64_t ref_handshakes = 0;

  std::uint64_t samples = 0;
  std::uint64_t frames = 0;
  std::uint64_t drops = 0;
  double inject_seconds = 0.0;
  bool identical = true;
  for (auto _ : state) {
    PipelineConfig cfg;
    cfg.num_queues = workers;
    cfg.queue_depth = 16384;
    cfg.enrichment_threads = 1;
    RuruPipeline pipeline(cfg, world.geo, world.as);
    pipeline.start();
    auto model = scenarios::transpacific(0xF162, 4000.0, Duration::from_sec(5.0));
    const ReplayStats rs = replay_scenario(pipeline, model);
    pipeline.finish();

    const PipelineSummary sum = pipeline.summary();
    const std::uint64_t iter_samples = sum.tracker.samples_emitted;
    const std::uint64_t iter_handshakes = sum.tracker.ack_matched;
    if (workers == 1) {
      ref_samples = iter_samples;
      ref_handshakes = iter_handshakes;
    } else {
      identical = identical && iter_samples == ref_samples &&
                  iter_handshakes == ref_handshakes;
    }
    samples += iter_samples;
    frames += rs.frames;
    drops += rs.inject_drops;
    inject_seconds += rs.wall_seconds;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  state.counters["handshakes"] =
      static_cast<double>(samples) / static_cast<double>(state.iterations());
  state.counters["inject_pps"] =
      inject_seconds > 0 ? static_cast<double>(frames) / inject_seconds : 0.0;
  state.counters["drops"] = static_cast<double>(drops);
  state.counters["identical_to_1worker"] = identical ? 1.0 : 0.0;
}
BENCHMARK(BM_ScalingPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("workers")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- shared-nothing shard makespan: the N-core scaling model ---

void BM_ScalingShardMakespan(benchmark::State& state) {
  const auto workers = static_cast<std::uint16_t>(state.range(0));
  const auto& frames = trace();

  std::uint64_t samples = 0;
  std::uint64_t drops = 0;
  double max_shard = 0.0;
  double min_shard = 0.0;
  double model_pps = 0.0;
  for (auto _ : state) {
    Mempool pool(1 << 16, 2048);
    NicConfig cfg;
    cfg.num_queues = workers;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);

    // Partition with the NIC's own steering hash: shard q is exactly
    // the stream worker q would see live.
    std::vector<std::vector<RxFrame>> shards(workers);
    for (const auto& f : frames) {
      shards[nic.hash_frame(f.frame) % workers].push_back({f.frame, f.timestamp});
    }

    double iter_max = 0.0;
    double iter_min = 0.0;
    std::uint64_t iter_samples = 0;
    for (std::uint16_t q = 0; q < workers; ++q) {
      std::uint64_t shard_samples = 0;
      QueueWorker worker(nic, q, 1 << 14,
                         [&shard_samples](const LatencySample&) { ++shard_samples; });
      const std::size_t max_chunk = cfg.queue_depth / 2;
      const auto t0 = std::chrono::steady_clock::now();
      std::span<const RxFrame> rest(shards[q]);
      while (!rest.empty()) {
        // Half-queue-depth chunks into a drained ring and pool: inject a
        // burst, drain it, repeat — the steady state of one queue's
        // stream paired with its worker.
        const std::size_t chunk = std::min(rest.size(), max_chunk);
        drops += chunk - nic.inject_burst(rest.first(chunk));
        while (worker.poll_once() != 0) {
        }
        rest = rest.subspan(chunk);
      }
      const double dt = seconds_since(t0);
      iter_max = std::max(iter_max, dt);
      iter_min = (q == 0) ? dt : std::min(iter_min, dt);
      iter_samples += shard_samples;
    }
    samples += iter_samples;
    max_shard += iter_max;
    min_shard += iter_min;
    model_pps += static_cast<double>(frames.size()) / iter_max;
  }

  const auto iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  state.counters["aggregate_pps_model"] = model_pps / iters;
  state.counters["shard_imbalance"] =
      min_shard > 0 ? (max_shard / min_shard) : 0.0;
  state.counters["samples"] = static_cast<double>(samples) / iters;
  state.counters["drops"] = static_cast<double>(drops);
}
BENCHMARK(BM_ScalingShardMakespan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("workers")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- soak: millions of live handshakes resident across worker tables ---

void BM_SoakResidentFlows(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSlotsPerWorker = std::size_t{1} << 21;  // 2M
  constexpr std::size_t kResidentPerWorker = 1'200'000;          // ~57% load
  const Duration stale = Duration::from_sec(3600.0);
  const Timestamp now = Timestamp::from_ns(1'000'000);

  // Synthetic unique flows; rss is a 64-bit mix of the flow ordinal
  // (placement entropy equivalent to a real Toeplitz spread).
  const auto flow_of = [](std::uint64_t i) {
    FiveTuple t;
    t.src = IpAddress(Ipv4Address(10, static_cast<std::uint8_t>(i >> 16),
                                  static_cast<std::uint8_t>(i >> 8),
                                  static_cast<std::uint8_t>(i)));
    t.dst = IpAddress(Ipv4Address(192, 168, static_cast<std::uint8_t>(i >> 24), 1));
    t.src_port = static_cast<std::uint16_t>(20'000 + (i >> 32));
    t.dst_port = 443;
    t.protocol = 6;
    return t;
  };
  const auto rss_of = [](std::uint64_t i) {
    std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<std::uint32_t>(h);
  };

  double max_shard = 0.0;
  std::uint64_t resident_total = 0;
  std::uint64_t probes_total = 0;
  std::uint64_t hits_total = 0;
  for (auto _ : state) {
    double iter_max = 0.0;
    std::uint64_t iter_resident = 0;
    // One worker's table at a time (~340MB each): sequential shards,
    // makespan model as above.
    for (std::size_t w = 0; w < workers; ++w) {
      FlowTable table(kSlotsPerWorker, stale);
      const std::uint64_t base = static_cast<std::uint64_t>(w) << 40;
      for (std::size_t i = 0; i < kResidentPerWorker; ++i) {
        bool inserted = false;
        const FlowKey key = FlowKey::from(flow_of(base + i));
        (void)table.find_or_insert(key, rss_of(base + i), now, inserted);
      }
      iter_resident += table.size();

      // Probe the resident set at full occupancy (strided revisit, so
      // the working set defeats the cache the way a live table does).
      constexpr std::size_t kProbes = 1 << 16;
      std::uint64_t hits = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kProbes; ++i) {
        const std::uint64_t flow = base + (i * 7919) % kResidentPerWorker;
        const FlowKey key = FlowKey::from(flow_of(flow));
        hits += table.find(key, rss_of(flow), now) != FlowTable::kNoSlot ? 1 : 0;
      }
      iter_max = std::max(iter_max, seconds_since(t0));
      probes_total += kProbes;
      hits_total += hits;
    }
    max_shard += iter_max;
    resident_total = iter_resident;  // same every iteration
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(probes_total));
  state.counters["resident_flows_total"] = static_cast<double>(resident_total);
  state.counters["find_hit_per_sec_model"] =
      max_shard > 0 ? static_cast<double>(1 << 16) * static_cast<double>(state.iterations()) /
                          max_shard
                    : 0.0;
  // A handful of the 1.2M inserts (~1e-4) legitimately fail when a probe
  // window fills with live entries; their probes miss.  Anything below
  // ~0.999 would mean the table is losing resident flows.
  state.counters["probe_hit_rate"] =
      probes_total > 0 ? static_cast<double>(hits_total) / static_cast<double>(probes_total)
                       : 0.0;
}
BENCHMARK(BM_SoakResidentFlows)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("workers")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
