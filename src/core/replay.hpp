#pragma once
// Feeding a pipeline: scenario replay and pcap replay.
//
// Replay is as-fast-as-possible (the pipeline is the thing under test;
// packet timestamps carry the scenario's virtual time), matching how the
// benches measure sustained throughput.

#include <string>

#include "capture/pcap.hpp"
#include "capture/traffic_model.hpp"
#include "core/pipeline.hpp"

namespace ruru {

struct ReplayStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t inject_drops = 0;
  double wall_seconds = 0.0;  ///< real time spent injecting

  [[nodiscard]] double frames_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(frames) / wall_seconds : 0.0;
  }
  [[nodiscard]] double gbits_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(bytes) * 8.0 / wall_seconds / 1e9 : 0.0;
  }
};

/// Drains `model` into `pipeline` (which must be started) through
/// inject_burst(), offering each frame once.  `lossless`: wait for free
/// mbufs and ring slots before offering a burst instead of dropping —
/// keeps accuracy experiments lossless; throughput benches set it false
/// to measure honest drop behaviour.  Oversize frames drop either way.
ReplayStats replay_scenario(RuruPipeline& pipeline, TrafficModel& model, bool lossless = true);

/// Replays a pcap file into the pipeline, like replay_scenario().
Result<ReplayStats> replay_pcap(RuruPipeline& pipeline, const std::string& path,
                                bool lossless = true);

/// Paced replay: frames are injected, losslessly and in bursts of those
/// already due, when the wall clock reaches `frame_time / time_scale`
/// (time_scale 1.0 = real time, 10.0 = 10x fast-forward). This is how a
/// live demo runs; throughput benches use the as-fast-as-possible
/// variants above.
ReplayStats replay_scenario_paced(RuruPipeline& pipeline, TrafficModel& model,
                                  double time_scale = 1.0);

}  // namespace ruru
