// Multi-core scale-out invariants: whatever the worker count, the
// measurement output is bit-identical — symmetric RSS shards the trace
// over the queues with both directions of a flow on one queue, each
// worker sees its shard in arrival order, and the bus fan-in lanes
// conserve every sample (delivered + dropped == published).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "capture/scenarios.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"
#include "msg/codec.hpp"

namespace ruru {
namespace {

World scenario_world() {
  std::vector<SiteSpec> specs;
  auto convert = [&](const scenarios::Site& s) {
    SiteSpec spec;
    spec.city = s.city;
    spec.country = s.country;
    spec.latitude = s.latitude;
    spec.longitude = s.longitude;
    spec.asn = s.asn;
    spec.block_start = s.block.value();
    spec.block_size = 256;
    specs.push_back(std::move(spec));
  };
  for (const auto& s : scenarios::nz_sites()) convert(s);
  for (const auto& s : scenarios::world_sites()) convert(s);
  auto w = build_world(specs);
  EXPECT_TRUE(w.ok()) << w.error();
  return std::move(w).value();
}

/// Everything that identifies one measurement, minus queue_id (which
/// legitimately depends on N: hash % num_queues).
using SampleFacts = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;

struct RunResult {
  std::vector<SampleFacts> samples;  // sorted
  std::uint64_t emitted = 0;
  std::uint64_t bus_published = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t sub_delivered = 0;
  std::uint64_t sub_dropped = 0;
};

RunResult run_replay(const World& world, std::uint16_t workers) {
  PipelineConfig cfg;
  cfg.num_queues = workers;
  cfg.queue_depth = 8192;
  cfg.enrichment_threads = 1;
  cfg.flow_table_capacity = 1 << 14;
  RuruPipeline pipeline(cfg, world.geo, world.as);

  RunResult result;
  std::mutex mu;
  pipeline.add_enriched_sink([&](const EnrichedSample& s) {
    std::lock_guard lock(mu);
    result.samples.emplace_back(s.started_at.ns, s.completed_at.ns, s.internal.ns,
                                s.external.ns);
  });
  auto sub = pipeline.subscribe(std::string(kLatencyTopic));

  pipeline.start();
  auto model = scenarios::transpacific(0xF162, 1500.0, Duration::from_sec(3.0));
  replay_scenario(pipeline, model);
  pipeline.finish();

  const PipelineSummary sum = pipeline.summary();
  result.emitted = sum.tracker.samples_emitted;
  result.bus_published = sum.bus_published;
  result.handshakes = sum.tracker.ack_matched;
  result.sub_delivered = sub->delivered();
  result.sub_dropped = sub->dropped();
  std::sort(result.samples.begin(), result.samples.end());
  return result;
}

TEST(Scaling, ShardedNWorkersBitIdenticalTo1Worker) {
  const World world = scenario_world();
  const RunResult one = run_replay(world, 1);
  ASSERT_GT(one.emitted, 0u);
  ASSERT_EQ(one.samples.size(), one.emitted);

  for (const std::uint16_t workers : {std::uint16_t{2}, std::uint16_t{4}}) {
    const RunResult n = run_replay(world, workers);
    EXPECT_EQ(n.emitted, one.emitted) << workers << " workers";
    EXPECT_EQ(n.handshakes, one.handshakes) << workers << " workers";
    // Not just the counts: every per-flow timing fact matches, sample
    // for sample.
    EXPECT_EQ(n.samples, one.samples) << workers << " workers";
  }
}

TEST(Scaling, FanInConservesEverySample) {
  const World world = scenario_world();
  for (const std::uint16_t workers : {std::uint16_t{1}, std::uint16_t{2}, std::uint16_t{4}}) {
    const RunResult r = run_replay(world, workers);
    // Worker-emitted samples all reach the bus (lossless replay, no HWM
    // pressure at this rate), and every published sample is accounted
    // for at our subscriber: accepted or dropped, never silently lost.
    EXPECT_EQ(r.bus_published, r.emitted) << workers << " workers";
    EXPECT_EQ(r.sub_delivered + r.sub_dropped, r.bus_published) << workers << " workers";
  }
}

TEST(Scaling, PinnedTopologyCountsApplyOrFailSoft) {
  const World world = scenario_world();
  // CPU 0 always exists: both workers pin successfully.
  {
    PipelineConfig cfg;
    cfg.num_queues = 2;
    cfg.enrichment_threads = 1;
    cfg.pin_cpus = {0, 0};
    RuruPipeline pipeline(cfg, world.geo, world.as);
    pipeline.start();
    pipeline.finish();
    EXPECT_EQ(pipeline.lcores().pinned(), 2u);
    EXPECT_EQ(pipeline.lcores().pin_failures(), 0u);
  }
  // A CPU id the host does not have: counted as a failure, the pipeline
  // still runs to completion (best-effort contract).
  {
    PipelineConfig cfg;
    cfg.num_queues = 2;
    cfg.enrichment_threads = 1;
    cfg.pin_cpus = {0, 100000};
    RuruPipeline pipeline(cfg, world.geo, world.as);
    pipeline.start();
    auto model = scenarios::transpacific(0xF162, 500.0, Duration::from_sec(1.0));
    replay_scenario(pipeline, model);
    pipeline.finish();
    EXPECT_EQ(pipeline.lcores().pinned(), 1u);
    EXPECT_EQ(pipeline.lcores().pin_failures(), 1u);
    EXPECT_GT(pipeline.summary().tracker.samples_emitted, 0u);
  }
}

}  // namespace
}  // namespace ruru
