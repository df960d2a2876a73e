#include "core/ruru.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "capture/scenarios.hpp"
#include "geo/world.hpp"
#include "net/packet_builder.hpp"

namespace ruru {
namespace {

World tiny_world() {
  auto w = build_world(large_world_sites(4));
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

PipelineConfig tiny_config() {
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.enrichment_threads = 1;
  return cfg;
}

std::string temp_pcap(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid()) + ".pcap"))
      .string();
}

TEST(Replay, PcapRoundTripThroughPipeline) {
  const std::string path = temp_pcap("replay_test");

  // 1. Record a scenario to pcap.
  auto model = scenarios::transpacific(3, 100.0, Duration::from_sec(1.0));
  std::uint64_t written = 0;
  {
    auto writer = PcapWriter::open(path);
    ASSERT_TRUE(writer.ok());
    while (auto f = model.next()) {
      ASSERT_TRUE(writer.value().write(f->timestamp, f->frame).ok());
      ++written;
    }
  }
  ASSERT_GT(written, 100u);

  // 2. Replay the pcap through a live pipeline.
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  const auto stats = replay_pcap(pipeline, path);
  ASSERT_TRUE(stats.ok()) << stats.error();
  pipeline.finish();

  EXPECT_EQ(stats.value().frames, written);
  EXPECT_EQ(stats.value().inject_drops, 0u);
  EXPECT_EQ(pipeline.summary().nic.rx_packets, written);

  // Same number of handshakes as the ground truth says completed.
  std::uint64_t expected = 0;
  for (const auto& t : model.truth()) {
    if (t.handshake_completes) ++expected;
  }
  EXPECT_EQ(pipeline.summary().tracker.samples_emitted, expected);

  std::remove(path.c_str());
}

TEST(Replay, MissingPcapReportsError) {
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  EXPECT_FALSE(replay_pcap(pipeline, "/no/such/file.pcap").ok());
  pipeline.finish();
}

TEST(Replay, PacedReplayRespectsTimeScale) {
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  // 0.5 s of scenario time at 10x fast-forward ~= 50 ms of wall time.
  auto model = scenarios::transpacific(4, 100.0, Duration::from_sec(0.5));
  const auto stats = replay_scenario_paced(pipeline, model, /*time_scale=*/10.0);
  pipeline.finish();
  EXPECT_GT(stats.frames, 50u);
  EXPECT_GE(stats.wall_seconds, 0.03);  // actually paced, not instant
  EXPECT_LT(stats.wall_seconds, 2.0);   // but compressed well below 0.5 s x frames
  EXPECT_EQ(stats.inject_drops, 0u);
  EXPECT_EQ(pipeline.summary().nic.rx_packets, stats.frames);
}

/// (window start, packets/s) of every link_pps point.
std::vector<std::pair<std::int64_t, double>> link_pps_series(RuruPipeline& pipeline) {
  std::vector<std::pair<std::int64_t, double>> out;
  for (const WindowResult& w :
       pipeline.tsdb().window_aggregate("link_pps", TagSet{}, Timestamp{},
                                        Timestamp::from_sec(3600), Duration::from_sec(1.0))) {
    out.emplace_back(w.window_start.ns, w.stats.mean);
  }
  return out;
}

TEST(Replay, LosslessReplayUnderBackpressureOffersEachFrameOnce) {
  // A pool and rings far smaller than the trace: an as-fast-as-possible
  // replay keeps finding them full.  Lossless replay must still queue
  // every frame, and offer each one once, so the link meter (the wire
  // view) depends only on the trace.
  PipelineConfig cfg;
  cfg.num_queues = 2;
  cfg.queue_depth = 64;
  cfg.mempool_size = 128;
  cfg.enrichment_threads = 1;
  const World world = tiny_world();
  std::vector<std::pair<std::int64_t, double>> first;
  for (int run = 0; run < 2; ++run) {
    RuruPipeline pipeline(cfg, world.geo, world.as);
    pipeline.start();
    auto model = scenarios::transpacific(21, 2000.0, Duration::from_sec(2.0));
    const ReplayStats stats = replay_scenario(pipeline, model);
    pipeline.finish();

    ASSERT_GT(stats.frames, 10 * cfg.mempool_size);
    EXPECT_EQ(stats.inject_drops, 0u) << "run " << run;
    EXPECT_EQ(pipeline.link_meter().total_packets(), stats.frames) << "run " << run;
    const NicStats& nic = pipeline.nic().stats();
    EXPECT_EQ(nic.rx_packets, stats.frames) << "run " << run;
    EXPECT_EQ(nic.dropped_no_mbuf, 0u) << "run " << run;
    EXPECT_EQ(nic.dropped_queue_full, 0u) << "run " << run;
    EXPECT_EQ(nic.dropped_oversize, 0u) << "run " << run;

    const auto series = link_pps_series(pipeline);
    ASSERT_FALSE(series.empty());
    if (run == 0) {
      first = series;
    } else {
      EXPECT_EQ(series, first);
    }
  }
}

TEST(Replay, OversizeFrameIsOneCountedDrop) {
  // A 4000-byte frame can never fit a 2048-byte mbuf: lossless replay
  // drops it once instead of re-offering it.
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = Ipv4Address(10, 2, 0, 1);
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.flags = TcpFlags::kAck;
  spec.payload_length = 10;
  const auto small = build_tcp_frame(spec);
  spec.payload_length = 3946;
  const auto big = build_tcp_frame(spec);
  ASSERT_EQ(small.size(), 64u);
  ASSERT_EQ(big.size(), 4000u);

  const std::string path = temp_pcap("replay_oversize");
  {
    auto writer = PcapWriter::open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().write(Timestamp::from_ms(1), small).ok());
    ASSERT_TRUE(writer.value().write(Timestamp::from_ms(2), big).ok());
    ASSERT_TRUE(writer.value().write(Timestamp::from_ms(3), small).ok());
  }

  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  const auto stats = replay_pcap(pipeline, path);
  ASSERT_TRUE(stats.ok()) << stats.error();
  pipeline.finish();
  std::remove(path.c_str());

  EXPECT_EQ(stats.value().frames, 3u);
  EXPECT_EQ(stats.value().inject_drops, 1u);
  EXPECT_EQ(pipeline.nic().stats().dropped_oversize, 1u);
  EXPECT_EQ(pipeline.nic().stats().rx_packets, 2u);
  EXPECT_EQ(pipeline.link_meter().total_packets(), 3u);
}

TEST(Replay, UmbrellaHeaderCompiles) {
  // core/ruru.hpp is the public entry point; this test exists so a
  // regression in any re-exported header breaks visibly.
  SUCCEED();
}

TEST(Replay, ScenarioStatsAccounting) {
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(9, 50.0, Duration::from_sec(1.0));
  const auto stats = replay_scenario(pipeline, model);
  pipeline.finish();
  EXPECT_EQ(stats.frames, model.frames_emitted());
  EXPECT_GT(stats.bytes, stats.frames * 50);  // frames are > 50B each
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.frames_per_sec(), 0.0);
  EXPECT_GT(stats.gbits_per_sec(), 0.0);
}

}  // namespace
}  // namespace ruru
