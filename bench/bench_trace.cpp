// Flight-recorder overhead (ISSUE 8 tentpole bench): what does tracing
// cost the pipeline it observes?
//
// Three angles:
//
//  * BM_TraceOverheadPipeline — the full pipeline over the same
//    pre-seeded trans-Pacific replay at sample_n = 0 (tracing off),
//    64 (the shipping 1-in-64 rate) and 1 (every flow traced — the
//    worst case).  The acceptance bar is the off -> 64 delta staying
//    within noise of a few percent; the run also asserts the sample
//    stream is bit-identical across rates (`identical_to_untraced`),
//    because a recorder that perturbs its subject is lying.
//
//  * BM_TraceEmit — the raw ring: one emit is three relaxed stores and
//    a release store, so this should sit in the very low nanoseconds.
//    The locked variant is benchmarked next to it to justify keeping
//    the mutex path confined to the one multi-producer ring.
//
//  * BM_TraceSnapshotWhileWriting — the reader side: snapshotting a
//    ring being hammered by a writer, i.e. what a watchdog dump costs
//    while the pipeline is live.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "obs/trace.hpp"
#include "obs/tsc_clock.hpp"

namespace {

using namespace ruru;

// --- full pipeline: traced vs untraced ---

void BM_TraceOverheadPipeline(benchmark::State& state) {
  const auto sample_n = static_cast<std::uint32_t>(state.range(0));
  static const World world = ruru::bench::scenario_world();
  // Filled by the sample_n=0 run (registered first); traced runs compare.
  static std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>>
      ref_samples;

  std::uint64_t frames = 0;
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  double inject_seconds = 0.0;
  bool identical = true;
  for (auto _ : state) {
    PipelineConfig cfg;
    cfg.num_queues = 2;
    cfg.queue_depth = 16384;
    cfg.enrichment_threads = 1;
    cfg.trace_sample_n = sample_n;
    cfg.trace_ring_capacity = 1 << 15;
    RuruPipeline pipeline(cfg, world.geo, world.as);

    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>> facts;
    std::mutex mu;
    pipeline.add_enriched_sink([&](const EnrichedSample& s) {
      std::lock_guard lock(mu);
      facts.emplace_back(s.started_at.ns, s.completed_at.ns, s.internal.ns, s.external.ns);
    });

    pipeline.start();
    auto model = scenarios::transpacific(0xF162, 4000.0, Duration::from_sec(5.0));
    const ReplayStats rs = replay_scenario(pipeline, model);
    pipeline.finish();

    std::sort(facts.begin(), facts.end());
    if (sample_n == 0) {
      ref_samples = facts;
    } else if (!ref_samples.empty()) {
      identical = identical && facts == ref_samples;
    }
    samples += pipeline.summary().tracker.samples_emitted;
    events += pipeline.tracer().events_emitted();
    frames += rs.frames;
    inject_seconds += rs.wall_seconds;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["inject_pps"] =
      inject_seconds > 0 ? static_cast<double>(frames) / inject_seconds : 0.0;
  state.counters["samples"] =
      static_cast<double>(samples) / static_cast<double>(state.iterations());
  state.counters["trace_events"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
  state.counters["identical_to_untraced"] = identical ? 1.0 : 0.0;
}
BENCHMARK(BM_TraceOverheadPipeline)
    ->Arg(0)
    ->Arg(64)
    ->Arg(1)
    ->ArgName("sample_n")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- raw emit cost ---

void BM_TraceEmit(benchmark::State& state) {
  obs::TraceRing ring(4096);
  obs::TraceHandle handle(&ring);
  std::uint32_t i = 0;
  for (auto _ : state) {
    handle.span(obs::TraceStage::kWorker, i | 1u, static_cast<std::int64_t>(i), 100, i, 0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["emitted"] = static_cast<double>(ring.emitted());
}
BENCHMARK(BM_TraceEmit);

void BM_TraceEmitLocked(benchmark::State& state) {
  obs::TraceRing ring(4096);
  obs::TraceHandle handle(&ring, /*shared=*/true);
  std::uint32_t i = 0;
  for (auto _ : state) {
    handle.span(obs::TraceStage::kTsdb, i | 1u, static_cast<std::int64_t>(i), 100, i, 0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitLocked);

void BM_TraceInertHandle(benchmark::State& state) {
  // The untraced hot path: a default-constructed handle.  This must
  // optimize to (nearly) nothing — it is what every packet pays when
  // tracing is off.
  obs::TraceHandle handle;
  std::uint32_t i = 0;
  for (auto _ : state) {
    handle.span(obs::TraceStage::kWorker, i, static_cast<std::int64_t>(i), 100);
    benchmark::DoNotOptimize(i);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInertHandle);

void BM_TscClockNow(benchmark::State& state) {
  const obs::TscClock& clock = obs::trace_clock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.now_ns());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["tsc_usable"] = clock.calibration().usable ? 1.0 : 0.0;
}
BENCHMARK(BM_TscClockNow);

// --- snapshot under fire ---

void BM_TraceSnapshotWhileWriting(benchmark::State& state) {
  obs::TraceRing ring(4096);
  obs::TraceHandle handle(&ring);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      handle.instant(obs::TraceStage::kWorker, i | 1u, static_cast<std::int64_t>(i), i, 0);
      ++i;
    }
  });
  std::vector<obs::TraceEvent> out;
  std::uint64_t events = 0;
  for (auto _ : state) {
    ring.snapshot(out);
    events += out.size();
  }
  stop.store(true);
  writer.join();
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_snapshot"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TraceSnapshotWhileWriting)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
