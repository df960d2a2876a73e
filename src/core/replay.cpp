#include "core/replay.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace ruru {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// The one feeder behind every replay: accumulates frames and hands them
/// to inject_burst() in bursts of PipelineConfig::inject_burst_size.
/// Each frame is offered exactly once, so the link meter sees the wire
/// once and in order.  Lossless mode waits for room before offering:
/// it caps each burst at SimNic::room() and yields while that is 0, so
/// no frame is refused for want of an mbuf or a ring slot (an oversize
/// frame is still one counted drop).  Lossy mode offers whole bursts
/// and counts whatever the NIC refuses.
class BurstFeeder {
 public:
  BurstFeeder(RuruPipeline& pipeline, bool lossless, ReplayStats& stats)
      : pipeline_(pipeline), lossless_(lossless), stats_(stats) {
    frames_.reserve(PipelineConfig::inject_burst_size);
    refs_.reserve(PipelineConfig::inject_burst_size);
  }

  void add(TimedFrame frame) {
    ++stats_.frames;
    stats_.bytes += frame.frame.size();
    frames_.push_back(std::move(frame));
    if (frames_.size() >= PipelineConfig::inject_burst_size) flush();
  }

  void flush() {
    refs_.clear();
    for (const TimedFrame& f : frames_) refs_.push_back({f.frame, f.timestamp});
    for (std::span<const RxFrame> rest(refs_); !rest.empty();) {
      const std::size_t n = lossless_ ? std::min(rest.size(), wait_for_room()) : rest.size();
      stats_.inject_drops += n - pipeline_.inject_burst(rest.first(n));
      rest = rest.subspan(n);
    }
    frames_.clear();
  }

 private:
  [[nodiscard]] std::size_t wait_for_room() const {
    std::size_t room = 0;
    while ((room = pipeline_.nic().room()) == 0) std::this_thread::yield();
    return room;
  }

  RuruPipeline& pipeline_;
  bool lossless_;
  ReplayStats& stats_;
  std::vector<TimedFrame> frames_;  ///< owns the burst's bytes
  std::vector<RxFrame> refs_;
};

}  // namespace

ReplayStats replay_scenario(RuruPipeline& pipeline, TrafficModel& model, bool lossless) {
  ReplayStats stats;
  const auto start = WallClock::now();
  BurstFeeder feeder(pipeline, lossless, stats);
  while (auto frame = model.next()) feeder.add(std::move(*frame));
  feeder.flush();
  stats.wall_seconds = seconds_since(start);
  return stats;
}

ReplayStats replay_scenario_paced(RuruPipeline& pipeline, TrafficModel& model,
                                  double time_scale) {
  ReplayStats stats;
  if (time_scale <= 0) time_scale = 1.0;
  const auto start = WallClock::now();
  BurstFeeder feeder(pipeline, /*lossless=*/true, stats);
  while (auto frame = model.next()) {
    const auto due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                 static_cast<double>(frame->timestamp.ns) / time_scale));
    if (due > WallClock::now()) {
      // Hand over every frame already due before sleeping to the next.
      feeder.flush();
      std::this_thread::sleep_until(due);
    }
    feeder.add(std::move(*frame));
  }
  feeder.flush();
  stats.wall_seconds = seconds_since(start);
  return stats;
}

Result<ReplayStats> replay_pcap(RuruPipeline& pipeline, const std::string& path, bool lossless) {
  auto reader = PcapReader::open(path);
  if (!reader) return make_error(reader.error());
  ReplayStats stats;
  const auto start = WallClock::now();
  BurstFeeder feeder(pipeline, lossless, stats);
  while (auto record = reader.value().next()) {
    feeder.add(TimedFrame{record->timestamp, std::move(record->frame)});
  }
  feeder.flush();
  stats.wall_seconds = seconds_since(start);
  return stats;
}

}  // namespace ruru
