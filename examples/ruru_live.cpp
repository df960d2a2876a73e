// ruru_live — the deployed system in miniature, running in real time.
//
//   * loads an operator config file (optional argv[1])
//   * paces simulated trans-Pacific traffic against the wall clock
//   * serves the live map feed on a real WebSocket port (connect any
//     RFC 6455 client to ws://127.0.0.1:<port>/live while it runs)
//   * redraws a Grafana-style dashboard once per second
//
// Run: ./ruru_live [--metrics] [--trace] [config_file] [seconds] [flows_per_sec]
// --metrics (or obs.enabled in the config file) turns on the live
// telemetry layer; the dashboard then shows self-ingested pipeline
// health series alongside the traffic it measures.
// --trace (or obs.trace_sample_n in the config file) arms the flight
// recorder at 1-in-64 sampling plus the stall watchdog — send SIGUSR1
// for a live flight-record dump — and writes /tmp/ruru_trace.json for
// ui.perfetto.dev on exit.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/config_file.hpp"
#include "core/pipeline.hpp"
#include "example_util.hpp"
#include "util/token_bucket.hpp"
#include "viz/dashboard.hpp"
#include "viz/frame_encoder.hpp"
#include "viz/ws_server.hpp"

int main(int argc, char** argv) {
  using namespace ruru;
  using SteadyClock = std::chrono::steady_clock;

  bool with_metrics = false;
  bool with_trace = false;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      with_metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      with_trace = true;
    } else {
      args.push_back(argv[i]);
    }
  }

  PipelineConfig config;
  config.num_queues = 2;
  if (!args.empty()) {
    auto loaded = pipeline_config_from_file(args[0], config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "config error: %s\n", loaded.error().c_str());
      return 1;
    }
    config = loaded.value();
    std::printf("loaded config from %s\n", args[0]);
  }
  if (with_metrics) config.metrics_enabled = true;
  if (with_trace) {
    config.trace_sample_n = 64;
    config.trace_json_path = "/tmp/ruru_trace.json";
    config.watchdog_enabled = true;
  }
  const double seconds = args.size() > 1 ? std::atof(args[1]) : 5.0;
  const double flows_per_sec = args.size() > 2 ? std::atof(args[2]) : 800.0;

  const World world = examples::scenario_world();
  RuruPipeline pipeline(config, world.geo, world.as);
  pipeline.start();

  WsServer ws;
  if (auto s = ws.bind(0); !s.ok()) {
    std::fprintf(stderr, "ws bind failed: %s\n", s.error().c_str());
    return 1;
  }
  std::printf("live map feed: ws://127.0.0.1:%u/live\n", ws.port());

  auto model = scenarios::transpacific(/*seed=*/31337, flows_per_sec,
                                       Duration::from_sec(seconds));
  FrameEncoder encoder;
  TokenBucket fps(30.0, 1.0);
  TokenBucket dashboard_tick(1.0, 1.0);
  Dashboard dashboard(pipeline.tsdb(), [] {
    DashboardOptions o;
    o.graph_width = 60;
    o.graph_height = 6;
    o.ascii_only = true;
    return o;
  }());

  const auto wall_start = SteadyClock::now();
  std::uint64_t ws_frames = 0;
  while (auto f = model.next()) {
    // Pace against the wall clock: sleep until this frame's moment.
    const auto due = wall_start + std::chrono::nanoseconds(f->timestamp.ns);
    std::this_thread::sleep_until(due);
    // Lossless: wait for NIC room, then offer the frame once.
    while (pipeline.nic().room() == 0) std::this_thread::yield();
    const RxFrame rx{f->frame, f->timestamp};
    pipeline.inject_burst({&rx, 1});

    if (fps.allow(f->timestamp)) {
      const ArcFrame frame = pipeline.arcs().cut_frame(f->timestamp);
      ws.broadcast_text(encoder.encode(frame));
      ++ws_frames;
    }
    if (dashboard_tick.allow(f->timestamp)) {
      const Timestamp now = f->timestamp;
      const Timestamp from = now.ns > Duration::from_sec(30.0).ns
                                 ? now - Duration::from_sec(30.0)
                                 : Timestamp{};
      std::printf("\n-- t=%.1fs  (ws clients: %zu, frames pushed: %llu) --\n", now.to_sec(),
                  ws.client_count(), static_cast<unsigned long long>(ws_frames));
      std::fputs(dashboard.render_stats_strip("total_ms", TagSet{}, from, now).c_str(), stdout);
      std::fputs(dashboard.render_graph("total_ms", TagSet{}, from, now, "median").c_str(),
                 stdout);
      std::fflush(stdout);
    }
  }
  pipeline.finish();
  ws.close();

  std::printf("\nfinal: %s\n", pipeline.summary().to_string().c_str());
  if (pipeline.tracer().enabled()) {
    std::printf("flight recorder: %llu events (perfetto trace: %s)\n",
                static_cast<unsigned long long>(pipeline.tracer().events_emitted()),
                config.trace_json_path.c_str());
  }
  std::fputs(dashboard.render_pair_table(pipeline.city_pairs().summaries()).c_str(), stdout);
  return 0;
}
