// The frontend feed: run the pipeline and emit exactly what the WebGL
// map consumes — 30 fps arc frames as JSON, wrapped in RFC 6455
// WebSocket text frames — plus an ASCII rendering of the final frame for
// terminals.
//
// Run: ./live_map_feed [seconds] [> feed.ndjson]

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "example_util.hpp"
#include "util/token_bucket.hpp"
#include "viz/ascii_map.hpp"
#include "viz/frame_encoder.hpp"
#include "viz/websocket.hpp"

int main(int argc, char** argv) {
  using namespace ruru;

  const double seconds = argc > 1 ? std::atof(argv[1]) : 5.0;
  const World world = examples::scenario_world();

  PipelineConfig config;
  config.num_queues = 4;
  RuruPipeline pipeline(config, world.geo, world.as);
  pipeline.start();

  auto model = scenarios::transpacific(/*seed=*/99, /*flows_per_sec=*/2000.0,
                                       Duration::from_sec(seconds));

  // Drive replay and cut frames at 30 fps of *scenario* time, exactly
  // like the live system cuts frames at 30 fps of wall time.
  FrameEncoder encoder;
  TokenBucket fps(30.0, 1.0);
  std::uint64_t frames_emitted = 0;
  std::uint64_t ws_bytes = 0;
  std::uint64_t arcs_total = 0;
  ArcFrame last_frame;

  while (auto f = model.next()) {
    const Timestamp t = f->timestamp;
    // Lossless: wait for NIC room, then offer the frame once.
    while (pipeline.nic().room() == 0) std::this_thread::yield();
    const RxFrame rx{f->frame, t};
    pipeline.inject_burst({&rx, 1});
    if (fps.allow(t)) {
      const ArcFrame frame = pipeline.arcs().cut_frame(t);
      if (!frame.arcs.empty()) last_frame = frame;
      const std::string json = encoder.encode(frame);
      const auto ws = ws_encode_text(json);
      ws_bytes += ws.size();
      arcs_total += frame.arcs.size();
      ++frames_emitted;
      if (frames_emitted <= 3) {
        std::printf("frame %llu (%zu ws bytes): %s\n",
                    static_cast<unsigned long long>(frame.sequence), ws.size(),
                    json.substr(0, 160).c_str());
      }
    }
  }
  pipeline.finish();

  const auto summary = pipeline.summary();
  std::printf("\n%llu websocket frames, %.1f KB total, %.1f arcs/frame avg, "
              "%llu connections represented\n",
              static_cast<unsigned long long>(frames_emitted),
              static_cast<double>(ws_bytes) / 1e3,
              frames_emitted ? static_cast<double>(arcs_total) / static_cast<double>(frames_emitted) : 0.0,
              static_cast<unsigned long long>(summary.tracker.samples_emitted));

  std::printf("\nFinal frame on the terminal map ('.'=green '+'=yellow '*'=orange '#'=red):\n");
  AsciiMap map(100, 28);
  std::fputs(map.render(last_frame).c_str(), stdout);
  return 0;
}
