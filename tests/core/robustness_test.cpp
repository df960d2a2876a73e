// Failure injection and adversarial input: the pipeline must stay
// correct (and account honestly) under garbage frames, resource
// exhaustion and backpressure.

#include <gtest/gtest.h>

#include "capture/scenarios.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"
#include "inject_one.hpp"
#include "net/packet_builder.hpp"
#include "util/random.hpp"

namespace ruru {
namespace {

World tiny_world() {
  auto w = build_world(large_world_sites(4));
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

TEST(Robustness, RandomGarbageFramesNeverCrashThePipeline) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 2;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();

  Pcg32 rng(0xBAD);
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < 20'000; ++i) {
    frame.resize(rng.bounded(512));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u32());
    inject_one(pipeline, frame, Timestamp::from_us(i));
  }
  pipeline.finish();

  const auto s = pipeline.summary();
  // Every injected frame was received and classified; none measured.
  EXPECT_EQ(s.nic.rx_packets + s.nic.dropped_queue_full + s.nic.dropped_no_mbuf, 20'000u);
  EXPECT_EQ(s.tracker.samples_emitted, 0u);
  std::uint64_t classified = 0;
  for (const auto c : s.workers.parse_status) classified += c;
  EXPECT_EQ(classified, s.workers.packets);
}

TEST(Robustness, TruncatedRealFramesAreRejectedNotMeasured) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();

  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = Ipv4Address(10, 2, 0, 1);
  spec.src_port = 40'000;
  spec.dst_port = 443;
  spec.flags = TcpFlags::kSyn;
  const auto full = build_tcp_frame(spec);
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    inject_one(pipeline, std::span<const std::uint8_t>(full.data(), cut),
               Timestamp::from_us(cut));
  }
  pipeline.finish();
  EXPECT_EQ(pipeline.summary().tracker.samples_emitted, 0u);
  EXPECT_EQ(pipeline.summary().tracker.syn_seen, 0u);  // all truncated before TCP parse
}

TEST(Robustness, TinyMempoolDropsAreCountedNotFatal) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.mempool_size = 8;  // absurdly small on purpose
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(3, 500.0, Duration::from_sec(1.0));
  const auto stats = replay_scenario(pipeline, model, /*lossless=*/false);
  pipeline.finish();

  const auto s = pipeline.summary();
  EXPECT_EQ(s.nic.rx_packets + s.nic.dropped_no_mbuf + s.nic.dropped_queue_full, stats.frames);
  // Some traffic made it through; nothing hung or crashed.
  EXPECT_GT(s.nic.rx_packets, 0u);
}

TEST(Robustness, TinyBusHwmDropsAreVisible) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.bus_hwm = 4;             // almost no buffering
  cfg.enrichment_threads = 1;  // slow consumer
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(5, 2000.0, Duration::from_sec(1.0));
  replay_scenario(pipeline, model);
  pipeline.finish();

  const auto s = pipeline.summary();
  // Conservation: published == enriched + dropped (never silently lost).
  EXPECT_EQ(s.bus_published, s.enriched + s.bus_dropped);
  EXPECT_GT(s.tracker.samples_emitted, 0u);
}

TEST(Robustness, TinyFlowTableDegradesGracefully) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.flow_table_capacity = 16;  // fewer slots than live flows
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(7, 1000.0, Duration::from_sec(1.0));
  replay_scenario(pipeline, model);
  pipeline.finish();

  const auto s = pipeline.summary();
  // Some handshakes measured, some dropped at the table; both visible.
  EXPECT_GT(s.tracker.samples_emitted, 0u);
  EXPECT_GT(s.tracker.table_drops, 0u);
}

TEST(Robustness, FinishWithoutStartIsSafe) {
  const World world = tiny_world();
  PipelineConfig cfg;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.finish();  // never started: no crash, no hang
}

TEST(Robustness, InjectAfterFinishIsHarmless) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  pipeline.finish();
  // Frames injected after shutdown queue up but are never processed —
  // and nothing crashes.
  const auto frame = build_non_ip_frame();
  inject_one(pipeline, frame, Timestamp{});
  SUCCEED();
}

// Property sweep: conservation invariants hold across seeds.
class ConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationTest, CountsBalanceAcrossAllStages) {
  const World world = tiny_world();
  PipelineConfig cfg;
  cfg.num_queues = 2;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(GetParam(), 300.0, Duration::from_sec(1.0));
  const auto stats = replay_scenario(pipeline, model);
  pipeline.finish();

  const auto s = pipeline.summary();
  // NIC conservation.
  EXPECT_EQ(s.nic.rx_packets, stats.frames - stats.inject_drops);
  // Worker conservation: every received packet either classified by the
  // full parser or skipped by the pre-parse fast path, exactly once.
  std::uint64_t classified = 0;
  for (const auto c : s.workers.parse_status) classified += c;
  EXPECT_EQ(classified + s.workers.fast_path_skips, s.workers.packets);
  EXPECT_GT(s.workers.fast_path_skips, 0u);  // data segments did take the fast path
  EXPECT_EQ(s.workers.packets, s.nic.rx_packets);
  // Measurement conservation.
  EXPECT_EQ(s.tracker.samples_emitted, s.bus_published);
  EXPECT_EQ(s.bus_published, s.enriched + s.bus_dropped);
  // Ground truth: samples == completed handshakes (lossless replay).
  std::uint64_t expected = 0;
  for (const auto& t : model.truth()) {
    if (t.handshake_completes) ++expected;
  }
  EXPECT_EQ(s.tracker.samples_emitted, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace ruru
