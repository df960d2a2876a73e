// In-flow RTT kernel tests: the ts_ring matching core, the tracker's
// in-flow layer (kinds, halves, rate limiting, one-sided mode), and the
// oracle property at the heart of the feature — the worker fast path
// replaying a full scenario emits exactly the sample sequence the
// offline pping baseline (the shared algorithm's reference
// implementation) computes on the same frames.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "baseline/pping.hpp"
#include "capture/scenarios.hpp"
#include "flow/ts_ring.hpp"
#include "flow/worker.hpp"
#include "inject_one.hpp"
#include "msg/codec.hpp"
#include "net/packet_builder.hpp"

namespace ruru {
namespace {

// --- ts_ring core ---------------------------------------------------

/// Owning test ring: the production lanes live inside the flow table's
/// SoA arrays, so tests build their own pair.
struct TestRing {
  explicit TestRing(std::size_t n) : vals(n, 0), times(n, kTsNever) {}
  [[nodiscard]] TsRingRef ref() { return {vals, times}; }
  std::vector<std::uint32_t> vals;
  std::vector<std::int64_t> times;
};

TEST(TsRing, NoteMatchConsume) {
  TestRing ring(8);
  TsDirState st;
  EXPECT_TRUE(ts_note(ring.ref(), st, 100, 5'000).noted);
  EXPECT_EQ(ts_match(ring.ref(), 100), 5'000);
  // Consumed: the same TSecr cannot match twice (one sample per TSval).
  EXPECT_EQ(ts_match(ring.ref(), 100), kTsNever);
}

TEST(TsRing, RetransmissionDoesNotRejuvenate) {
  TestRing ring(8);
  TsDirState st;
  EXPECT_TRUE(ts_note(ring.ref(), st, 100, 1'000).noted);
  EXPECT_FALSE(ts_note(ring.ref(), st, 100, 9'000).noted);  // retransmission
  EXPECT_EQ(ts_match(ring.ref(), 100), 1'000);              // first departure stands
}

TEST(TsRing, ConsumedEntryCanBeReNoted) {
  // Liveness lives in the times lane: a consumed note's stale TSval in
  // the vals lane neither matches nor blocks a fresh note of the same
  // value (a peer clock that stalled, or a wrapped value coming around).
  TestRing ring(8);
  TsDirState st;
  EXPECT_TRUE(ts_note(ring.ref(), st, 100, 1'000).noted);
  EXPECT_EQ(ts_match(ring.ref(), 100), 1'000);
  EXPECT_TRUE(ts_note(ring.ref(), st, 100, 7'000).noted);
  EXPECT_EQ(ts_match(ring.ref(), 100), 7'000);
}

TEST(TsRing, FullRingEvictsOldest) {
  TestRing ring(2);
  TsDirState st;
  EXPECT_FALSE(ts_note(ring.ref(), st, 1, 10).evicted);
  EXPECT_FALSE(ts_note(ring.ref(), st, 2, 20).evicted);
  EXPECT_TRUE(ts_note(ring.ref(), st, 3, 30).evicted);  // overwrites tsval 1
  EXPECT_EQ(ts_match(ring.ref(), 1), kTsNever);
  EXPECT_EQ(ts_match(ring.ref(), 2), 20);
  EXPECT_EQ(ts_match(ring.ref(), 3), 30);
}

TEST(TsRing, WrapDetectedBySignedDistance) {
  TestRing ring(8);
  TsDirState st;
  EXPECT_FALSE(ts_note(ring.ref(), st, 0xFFFF'FFF0u, 10).wrapped);
  const TsNoteResult r = ts_note(ring.ref(), st, 5, 20);  // newer mod 2^32, smaller value
  EXPECT_TRUE(r.noted);
  EXPECT_TRUE(r.wrapped);
  // Going backwards (an old duplicate with a different value) is not a wrap.
  EXPECT_FALSE(ts_note(ring.ref(), st, 2, 30).wrapped);
}

// --- tracker in-flow layer ------------------------------------------

class InflowTrackerTest : public ::testing::Test {
 protected:
  static constexpr std::uint16_t kQueue = 2;

  explicit InflowTrackerTest() { reset({true, 8, Duration{0}}); }

  void reset(InflowConfig cfg) {
    tracker_ = std::make_unique<HandshakeTracker>(1 << 10, Duration::from_sec(30.0),
                                                  FlowTable::kDefaultProbeWindow,
                                                  ProbeKernel::kAuto, cfg);
  }

  /// Feeds one frame through the full-parse path, returning emitted
  /// samples.
  std::vector<LatencySample> feed(const TcpFrameSpec& spec, std::int64_t t_ms) {
    const auto frame = build_tcp_frame(spec);
    PacketView view;
    EXPECT_EQ(parse_packet(frame, view), ParseStatus::kOk);
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(view.tuple()).hash());
    std::vector<LatencySample> out;
    tracker_->process(view, Timestamp::from_ms(t_ms), rss, kQueue, out);
    return out;
  }

  TcpFrameSpec seg(bool c2s, std::uint32_t tsval, std::uint32_t tsecr, std::size_t payload,
                   std::uint8_t flags = TcpFlags::kAck) {
    TcpFrameSpec s;
    s.src_ip = c2s ? client_ : server_;
    s.dst_ip = c2s ? server_ : client_;
    s.src_port = c2s ? cport_ : 443;
    s.dst_port = c2s ? 443 : cport_;
    s.flags = flags;
    s.payload_length = payload;
    s.with_timestamps = true;
    s.ts_val = tsval;
    s.ts_ecr = tsecr;
    return s;
  }

  /// SYN(t0) / SYN-ACK(t0+ext) / ACK(t0+ext+in) with timestamps; leaves
  /// the flow established.
  void establish(std::int64_t t0_ms = 0) {
    TcpFrameSpec syn = seg(true, 100, 0, 0, TcpFlags::kSyn);
    syn.seq = 1000;
    feed(syn, t0_ms);
    TcpFrameSpec synack = seg(false, 500, 100, 0, TcpFlags::kSyn | TcpFlags::kAck);
    synack.seq = 5000;
    synack.ack = 1001;
    feed(synack, t0_ms + 128);
    TcpFrameSpec ack = seg(true, 105, 500, 0);
    ack.seq = 1001;
    ack.ack = 5001;
    feed(ack, t0_ms + 133);
  }

  std::unique_ptr<HandshakeTracker> tracker_;
  Ipv4Address client_{10, 1, 0, 1};
  Ipv4Address server_{10, 2, 0, 1};
  std::uint16_t cport_ = 40'000;
};

TEST_F(InflowTrackerTest, EstablishedExchangeYieldsBothHalves) {
  establish();
  // Request with payload at t=200 (tsval 200, echoing server's 500 —
  // already consumed by the handshake ACK, so no match here).
  auto out = feed(seg(true, 200, 500, 300), 200);
  EXPECT_TRUE(out.empty());
  // Response echoes tsval 200 one external RTT later: external half.
  out = feed(seg(false, 600, 200, 1000), 330);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, SampleKind::kInflow);
  EXPECT_FALSE(out[0].toward_client);
  EXPECT_EQ(out[0].total().ns, Duration::from_ms(130).ns);
  EXPECT_EQ(out[0].external().ns, Duration::from_ms(130).ns);
  EXPECT_EQ(out[0].internal().ns, 0);
  EXPECT_TRUE(out[0].client == IpAddress(client_));
  EXPECT_TRUE(out[0].server == IpAddress(server_));
  EXPECT_EQ(out[0].queue_id, kQueue);
  // Client ack echoes 600 five ms later: internal half.
  out = feed(seg(true, 205, 600, 0), 335);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, SampleKind::kInflow);
  EXPECT_TRUE(out[0].toward_client);
  EXPECT_EQ(out[0].total().ns, Duration::from_ms(5).ns);
  EXPECT_EQ(out[0].internal().ns, Duration::from_ms(5).ns);
  EXPECT_EQ(out[0].external().ns, 0);
  // 4: SYN-ACK echoed the SYN, the ACK echoed the SYN-ACK, plus the two
  // exchange echoes above.
  EXPECT_EQ(tracker_->inflow_stats().ts_matches.load(), 4u);
}

TEST_F(InflowTrackerTest, PureAcksAreNotNoted) {
  establish();
  // A pure ACK's TSval must not be noted: the opposite direction echoing
  // it later finds nothing.
  feed(seg(true, 300, 0, 0), 200);
  const auto out = feed(seg(false, 700, 300, 500), 330);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tracker_->inflow_stats().ts_matches.load(), 2u);  // handshake echoes only
}

TEST_F(InflowTrackerTest, RateLimitEmitsFirstMatchPerWindow) {
  reset({true, 8, Duration::from_ms(100)});
  establish();
  feed(seg(true, 200, 0, 300), 200);
  feed(seg(true, 201, 0, 300), 205);
  // Two echoes 10 ms apart in the same direction: only the first emits.
  auto out = feed(seg(false, 600, 200, 500), 330);
  ASSERT_EQ(out.size(), 1u);
  out = feed(seg(false, 601, 201, 500), 340);
  EXPECT_TRUE(out.empty());
  // 2 handshake matches + 2 exchange matches; the handshake's own samples
  // (one per direction, windows fresh) plus the first exchange echo emit,
  // the second exchange echo lands 10 ms into the server->client window.
  EXPECT_EQ(tracker_->inflow_stats().ts_matches.load(), 4u);
  EXPECT_EQ(tracker_->inflow_stats().inflow_samples.load(), 3u);
  EXPECT_EQ(tracker_->inflow_stats().rate_limited.load(), 1u);
}

TEST_F(InflowTrackerTest, OneSidedModeEmitsDepartureDeltas) {
  // Only the client direction is visible (asymmetric tap): after the
  // SYN, data segments keep arriving with no reverse traffic ever seen.
  TcpFrameSpec syn = seg(true, 100, 0, 0, TcpFlags::kSyn);
  syn.seq = 1000;
  feed(syn, 0);
  auto out = feed(seg(true, 150, 0, 300), 50);
  ASSERT_EQ(out.size(), 1u);  // delta to the SYN's note
  EXPECT_EQ(out[0].kind, SampleKind::kOneSided);
  EXPECT_EQ(out[0].total().ns, Duration::from_ms(50).ns);
  out = feed(seg(true, 170, 0, 300), 70);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, SampleKind::kOneSided);
  EXPECT_EQ(out[0].total().ns, Duration::from_ms(20).ns);
  EXPECT_EQ(tracker_->inflow_stats().one_sided_samples.load(), 2u);

  // The moment the reverse direction appears, one-sided mode stops.
  feed(seg(false, 900, 0, 0), 80);
  out = feed(seg(true, 190, 0, 300), 90);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tracker_->inflow_stats().one_sided_samples.load(), 2u);
}

TEST_F(InflowTrackerTest, FinRetiresTheFlow) {
  establish();
  feed(seg(true, 200, 0, 100), 200);
  feed(seg(true, 210, 0, 0, TcpFlags::kFin | TcpFlags::kAck), 210);
  // Flow erased: the echo of tsval 200 finds no state.
  const auto out = feed(seg(false, 600, 200, 500), 330);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tracker_->table().size(), 0u);
}

// --- worker fast path vs offline pping oracle -----------------------

struct OracleSample {
  std::int64_t rtt_ns;
  std::int64_t at_ns;
  bool operator==(const OracleSample&) const = default;
};

class InflowOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InflowOracleTest, WorkerMatchesOfflinePpingOnReplayedScenario) {
  // Buffer one scenario's frames so every configuration replays the
  // exact same tap stream.
  auto model = scenarios::transpacific(GetParam(), 150.0, Duration::from_sec(3.0));
  std::vector<TimedFrame> frames;
  while (auto f = model.next()) frames.push_back(std::move(*f));
  ASSERT_GT(frames.size(), 1000u);

  for (const std::size_t ring : {std::size_t{8}, std::size_t{2}}) {
    // Offline oracle: the shared kernel with fast-path note rules and
    // the same fixed ring size (ring <= kInitialRing keeps the offline
    // rings fixed-size from the first note, so eviction order is
    // bit-identical to the flow table's rings).
    PpingConfig ocfg;
    ocfg.ring_entries = ring;
    ocfg.eliciting_only = true;
    PpingEstimator oracle(ocfg);
    std::vector<OracleSample> expected;
    for (const auto& f : frames) {
      PacketView view;
      if (parse_packet(f.frame, view) != ParseStatus::kOk) continue;
      if (auto s = oracle.process(view, f.timestamp)) {
        expected.push_back({s->rtt.ns, s->at.ns});
      }
    }
    ASSERT_GT(expected.size(), 100u) << "scenario produced too few echo samples";

    for (const bool fast_path : {true, false}) {
      Mempool pool(8192, 2048);
      NicConfig ncfg;
      ncfg.num_queues = 1;
      SimNic nic(ncfg, pool);
      InflowConfig icfg;
      icfg.enabled = true;
      icfg.ring_entries = ring;
      icfg.min_interval = Duration{0};  // the oracle has no rate limit
      std::vector<LatencySample> samples;
      QueueWorker worker(nic, 0, 1 << 14, [&](const LatencySample& s) { samples.push_back(s); },
                         Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow, icfg);
      worker.set_fast_path(fast_path);

      std::size_t pending = 0;
      for (const auto& f : frames) {
        while (!inject_one(nic, f.frame, f.timestamp)) worker.poll_once();
        if (++pending >= 16) {
          worker.poll_once();
          pending = 0;
        }
      }
      while (worker.poll_once() != 0) {
      }
      ASSERT_EQ(worker.tracker_stats().table_drops.load(), 0u);

      std::vector<OracleSample> got;
      for (const auto& s : samples) {
        if (s.kind == SampleKind::kInflow) got.push_back({s.total().ns, s.ack_time.ns});
      }
      ASSERT_EQ(got.size(), expected.size())
          << "ring=" << ring << " fast_path=" << fast_path;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << "sample " << i << " ring=" << ring << " fast_path="
                                       << fast_path << " rtt=" << got[i].rtt_ns
                                       << " expected=" << expected[i].rtt_ns;
      }
      // Kernel-level stats agree with the oracle's too.
      const InflowStats& st = worker.tracker().inflow_stats();
      EXPECT_EQ(st.ts_matches.load(), oracle.stats().samples);
      EXPECT_EQ(st.ts_ring_evictions.load(), oracle.stats().ring_evictions);
      EXPECT_EQ(st.ts_wraps.load(), oracle.stats().ts_wraps);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InflowOracleTest, ::testing::Values(11, 42, 9001));

// --- handshake byte-identity with the kernel on ----------------------

TEST(InflowWorker, HandshakeSamplesBitIdenticalWithKernelOnOrOff) {
  auto model = scenarios::transpacific(7, 120.0, Duration::from_sec(2.0));
  std::vector<TimedFrame> frames;
  while (auto f = model.next()) frames.push_back(std::move(*f));

  auto run = [&](InflowConfig icfg) {
    Mempool pool(8192, 2048);
    NicConfig ncfg;
    ncfg.num_queues = 1;
    SimNic nic(ncfg, pool);
    std::vector<LatencySample> samples;
    QueueWorker worker(nic, 0, 1 << 14, [&](const LatencySample& s) { samples.push_back(s); },
                       Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow, icfg);
    for (const auto& f : frames) {
      while (!inject_one(nic, f.frame, f.timestamp)) worker.poll_once();
    }
    while (worker.poll_once() != 0) {
    }
    return samples;
  };

  const auto off = run(InflowConfig{});
  const auto on = run(InflowConfig{true, 8, Duration::from_ms(10)});

  std::vector<LatencySample> on_handshakes;
  for (const auto& s : on) {
    if (s.kind == SampleKind::kHandshake) on_handshakes.push_back(s);
  }
  EXPECT_GT(on.size(), on_handshakes.size());  // the kernel did add in-flow samples
  ASSERT_EQ(on_handshakes.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    // Compare the encoded wire records — byte identity, not just field
    // equality (the family byte carries the new kind bits; a handshake
    // record must not change).
    const Message a = encode_latency_sample(off[i]);
    const Message b = encode_latency_sample(on_handshakes[i]);
    ASSERT_EQ(a.frames[1].size(), b.frames[1].size());
    ASSERT_EQ(std::memcmp(a.frames[1].data(), b.frames[1].data(), a.frames[1].size()), 0)
        << "handshake record " << i << " differs";
  }
}

}  // namespace
}  // namespace ruru
