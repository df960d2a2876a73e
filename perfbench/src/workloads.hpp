#pragma once
// The benchmark's three traffic mixes and their pregenerated traces.
//
// A trace is generated once per process from the workload seed, outside
// every timed region, and packed into one byte arena so replaying it
// touches no allocator.  The pipeline only ever sees the frames; the
// ground-truth counts stay with the harness for the output checks.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "driver/nic.hpp"
#include "geo/world.hpp"

namespace ruru::e2e {

struct Workload {
  std::string_view name;
  /// Open-loop offered rate (frames/s): fixed per workload, well below
  /// the saturated capacity of a 4-vCPU host.
  double offered_fps;
  /// Every generated handshake that completes must reach the sink.  False
  /// for the flood, where table saturation is the behaviour under test.
  bool samples_match_truth;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

struct Trace {
  std::vector<std::uint8_t> arena;   ///< all frame bytes, back to back
  std::vector<RxFrame> frames;       ///< views into `arena`, tap order
  std::uint64_t bytes = 0;
  std::uint64_t flows = 0;           ///< ground-truth flows generated
  std::uint64_t handshakes = 0;      ///< ground-truth flows whose handshake completes
  std::uint64_t flood_syns = 0;
  double generate_s = 0.0;

  /// Index of the first frame whose capture time is `t` (the frame a
  /// sample's completed_at names), or frames.size() when none.
  [[nodiscard]] std::size_t frame_at(Timestamp t) const;
};

/// `smoke` shrinks the trace about tenfold (the benchmark's self-test).
[[nodiscard]] Trace generate_trace(const Workload& workload, std::uint64_t seed, bool smoke);

/// The scenario address plan as geo/AS sites (what the enricher resolves).
[[nodiscard]] std::vector<SiteSpec> scenario_sites();

}  // namespace ruru::e2e
