// Quickstart: measure flow-level latency on a simulated trans-Pacific
// link, exactly the paper's deployment shape.
//
//   1. build the geo/AS world (IP2Location stand-in)
//   2. construct a RuruPipeline (simdpdk NIC -> workers -> bus ->
//      analytics -> TSDB/aggregators)
//   3. replay 10 seconds of Auckland<->world traffic through it
//   4. print the Grafana-style per-route table
//
// Run: ./quickstart [flows_per_sec] [seconds]

#include <cstdio>
#include <cstdlib>

#include "core/ruru.hpp"
#include "example_util.hpp"

int main(int argc, char** argv) {
  using namespace ruru;

  const double flows_per_sec = argc > 1 ? std::atof(argv[1]) : 500.0;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 10.0;

  const World world = examples::scenario_world();

  PipelineConfig config;
  config.num_queues = 4;
  config.enrichment_threads = 2;
  RuruPipeline pipeline(config, world.geo, world.as);
  pipeline.start();

  auto model = scenarios::transpacific(/*seed=*/2026, flows_per_sec,
                                       Duration::from_sec(seconds));
  const ReplayStats replay = replay_scenario(pipeline, model);
  pipeline.finish();

  const PipelineSummary summary = pipeline.summary();
  std::printf("Replayed %llu frames (%.1f MB) in %.2fs wall (%.2f Mpps, %.2f Gbit/s)\n",
              static_cast<unsigned long long>(replay.frames),
              static_cast<double>(replay.bytes) / 1e6, replay.wall_seconds,
              replay.frames_per_sec() / 1e6, replay.gbits_per_sec());
  std::printf("Pipeline: %s\n\n", summary.to_string().c_str());

  std::printf("%-32s %8s %9s %9s %9s %9s\n", "route (src|dst)", "conns", "min", "median",
              "mean", "max");
  for (const auto& p : pipeline.city_pairs().summaries()) {
    std::printf("%-32s %8llu %9s %9s %9s %9s\n", p.key.c_str(),
                static_cast<unsigned long long>(p.connections),
                to_string(p.min_total).c_str(), to_string(p.median_total).c_str(),
                to_string(p.mean_total).c_str(), to_string(p.max_total).c_str());
  }

  std::printf("\nTop AS pairs:\n");
  int shown = 0;
  for (const auto& p : pipeline.as_pairs().summaries()) {
    if (shown++ >= 5) break;
    std::printf("  %-24s %8llu conns, median %s\n", p.key.c_str(),
                static_cast<unsigned long long>(p.connections),
                to_string(p.median_total).c_str());
  }
  return 0;
}
