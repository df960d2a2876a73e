// Vector-loop exactness tests: QueueWorker's staged lane pipeline must
// emit bit-identical samples and stats to the one-probe-per-packet
// ReferenceWorker (reference_worker.hpp, the oracle) on any input —
// including the adversarial case the flush-at-lane-boundary rule exists
// for, a handshake completing mid-burst immediately before a data
// segment of the same flow.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "flow/worker.hpp"
#include "inject_one.hpp"
#include "net/packet_builder.hpp"
#include "reference_worker.hpp"
#include "util/random.hpp"

namespace ruru {
namespace {

// --- oracle harness -------------------------------------------------

/// One worker (QueueWorker or the ReferenceWorker oracle) with its own
/// mempool and NIC, so two harnesses can replay the exact same frame
/// stream without sharing any state.
template <typename Worker>
struct Harness {
  Harness(std::size_t table_capacity, Duration stale_after, InflowConfig inflow)
      : pool(4096, 2048) {
    NicConfig cfg;
    cfg.num_queues = 1;
    nic = std::make_unique<SimNic>(cfg, pool);
    worker = std::make_unique<Worker>(*nic, 0, table_capacity,
                                      [this](const LatencySample& s) { samples.push_back(s); },
                                      stale_after, FlowTable::kDefaultProbeWindow, inflow);
  }

  void replay(const std::vector<std::vector<std::pair<std::vector<std::uint8_t>, Timestamp>>>&
                  rounds) {
    for (const auto& round : rounds) {
      for (const auto& [frame, t] : round) inject_one(*nic, frame, t);
      while (worker->poll_once() != 0) {
      }
    }
  }

  Mempool pool;
  std::unique_ptr<SimNic> nic;
  std::unique_ptr<Worker> worker;
  std::vector<LatencySample> samples;
};

using RefHarness = Harness<ReferenceWorker>;
using VecHarness = Harness<QueueWorker>;

void expect_samples_equal(const std::vector<LatencySample>& a,
                          const std::vector<LatencySample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "sample " << i);
    EXPECT_EQ(a[i].client, b[i].client);
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].client_port, b[i].client_port);
    EXPECT_EQ(a[i].server_port, b[i].server_port);
    EXPECT_EQ(a[i].syn_time.ns, b[i].syn_time.ns);
    EXPECT_EQ(a[i].synack_time.ns, b[i].synack_time.ns);
    EXPECT_EQ(a[i].ack_time.ns, b[i].ack_time.ns);
    EXPECT_EQ(a[i].rss_hash, b[i].rss_hash);
    EXPECT_EQ(a[i].queue_id, b[i].queue_id);
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
    EXPECT_EQ(a[i].toward_client, b[i].toward_client);
  }
}

/// Every cell of `table`, compared by its exported name.
template <class S, std::size_t N>
void expect_cells_equal(const S& a, const S& b, const std::array<StatField<S>, N>& table) {
  for (const StatField<S>& f : table) EXPECT_EQ(f.read(a), f.read(b)) << f.name;
}

/// Every counter the lane pipeline must agree on with the reference (the
/// lane_* cells describe the lane pipeline itself and are excluded).
void expect_stats_equal(const RefHarness& ref, const VecHarness& vec) {
  const WorkerStats& ws = ref.worker->stats();
  const WorkerStats& wv = vec.worker->stats();
  EXPECT_EQ(ws.packets, wv.packets);
  EXPECT_EQ(ws.bytes, wv.bytes);
  for (std::size_t i = 0; i < ws.parse_status.size(); ++i) {
    EXPECT_EQ(ws.parse_status[i], wv.parse_status[i]) << "parse_status[" << i << "]";
  }
  EXPECT_EQ(ws.fast_path_skips, wv.fast_path_skips);
  EXPECT_EQ(ws.inflow_consumed, wv.inflow_consumed);

  expect_cells_equal(ref.worker->tracker_stats(), vec.worker->tracker_stats(),
                     kTrackerStatFields);
  expect_cells_equal(ref.worker->tracker().inflow_stats(), vec.worker->tracker().inflow_stats(),
                     kInflowStatFields);
  expect_cells_equal(ref.worker->tracker().table().stats(), vec.worker->tracker().table().stats(),
                     kFlowTableStatFields);

  EXPECT_EQ(ref.worker->tracker().table().size(), vec.worker->tracker().table().size());
}

// --- fuzz stream ----------------------------------------------------

/// A seeded stream of injection rounds drawn from a small flow pool:
/// handshake segments in and out of order, timestamped and bare data
/// segments both directions, teardowns, junk (UDP / non-IP / truncated),
/// and occasional 3-second time jumps so entries go stale under the
/// 2-second horizon and the classify walk sees verified-stale entries.
std::vector<std::vector<std::pair<std::vector<std::uint8_t>, Timestamp>>> fuzz_rounds(
    std::uint64_t seed, int n_rounds) {
  struct FuzzFlow {
    std::uint32_t tsval_c = 0;
    std::uint32_t tsval_s = 0;
  };
  constexpr int kFlows = 48;
  const Ipv4Address server(10, 2, 0, 1);
  std::array<FuzzFlow, kFlows> flows{};
  Pcg32 rng(seed);
  std::int64_t t_ms = 0;

  std::vector<std::vector<std::pair<std::vector<std::uint8_t>, Timestamp>>> rounds;
  rounds.reserve(static_cast<std::size_t>(n_rounds));
  for (int r = 0; r < n_rounds; ++r) {
    std::vector<std::pair<std::vector<std::uint8_t>, Timestamp>> round;
    const std::size_t count = 1 + rng.bounded(32);
    for (std::size_t k = 0; k < count; ++k) {
      t_ms += static_cast<std::int64_t>(rng.bounded(5));
      if (rng.bounded(96) == 0) t_ms += 3'000;  // staleness jump
      const auto fi = rng.bounded(kFlows);
      FuzzFlow& f = flows[fi];
      const Ipv4Address client(10, 1, static_cast<std::uint8_t>(fi / 8),
                               static_cast<std::uint8_t>(fi % 8 + 1));
      const auto cport = static_cast<std::uint16_t>(40'000 + fi);
      const bool with_ts = rng.bounded(4) != 0;

      TcpFrameSpec s;
      s.src_ip = client;
      s.dst_ip = server;
      s.src_port = cport;
      s.dst_port = 443;
      switch (rng.bounded(12)) {
        case 0:
        case 1:  // SYN
          s.seq = 1'000;
          s.flags = TcpFlags::kSyn;
          s.with_timestamps = with_ts;
          s.ts_val = ++f.tsval_c;
          break;
        case 2:  // SYN-ACK
          s.src_ip = server;
          s.dst_ip = client;
          s.src_port = 443;
          s.dst_port = cport;
          s.seq = 5'000;
          s.ack = 1'001;
          s.flags = TcpFlags::kSyn | TcpFlags::kAck;
          s.with_timestamps = with_ts;
          s.ts_val = ++f.tsval_s;
          s.ts_ecr = f.tsval_c;
          break;
        case 3:
        case 4:  // completing ACK (pure — a fast-path candidate lane)
          s.seq = 1'001;
          s.ack = 5'001;
          s.flags = TcpFlags::kAck;
          s.with_timestamps = with_ts;
          s.ts_val = ++f.tsval_c;
          s.ts_ecr = f.tsval_s;
          break;
        case 5:
        case 6:
        case 7:  // client data segment
          s.seq = 1'001;
          s.ack = 5'001;
          s.flags = TcpFlags::kAck;
          s.payload_length = 64;
          s.with_timestamps = with_ts;
          s.ts_val = ++f.tsval_c;
          s.ts_ecr = f.tsval_s;
          break;
        case 8:
        case 9:  // server data segment
          s.src_ip = server;
          s.dst_ip = client;
          s.src_port = 443;
          s.dst_port = cport;
          s.seq = 5'001;
          s.ack = 1'065;
          s.flags = TcpFlags::kAck;
          s.payload_length = 128;
          s.with_timestamps = with_ts;
          s.ts_val = ++f.tsval_s;
          s.ts_ecr = f.tsval_c;
          break;
        case 10:  // teardown
          s.seq = 1'065;
          s.ack = 5'129;
          s.flags = rng.bounded(2) == 0 ? static_cast<std::uint8_t>(TcpFlags::kFin | TcpFlags::kAck)
                                        : TcpFlags::kRst;
          break;
        default: {  // junk: UDP, non-IP, or a truncated TCP frame
          switch (rng.bounded(3)) {
            case 0:
              round.emplace_back(build_udp_frame(client, server, cport, 53, 32),
                                 Timestamp::from_ms(t_ms));
              break;
            case 1:
              round.emplace_back(build_non_ip_frame(), Timestamp::from_ms(t_ms));
              break;
            default: {
              s.flags = TcpFlags::kAck;
              auto frame = build_tcp_frame(s);
              frame.resize(frame.size() / 2);  // mid-TCP-header truncation
              round.emplace_back(std::move(frame), Timestamp::from_ms(t_ms));
              break;
            }
          }
          continue;
        }
      }
      round.emplace_back(build_tcp_frame(s), Timestamp::from_ms(t_ms));
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

void run_oracle(std::uint64_t seed, InflowConfig inflow, std::size_t vector_prefetch_depth) {
  const auto rounds = fuzz_rounds(seed, 200);
  // Capacity 64 against 48 flows: real probe collisions, tag mismatches
  // and insert pressure. stale_after 2 s + the stream's 3 s jumps:
  // verified-stale entries in the classify walk.
  RefHarness ref(64, Duration::from_sec(2.0), inflow);
  VecHarness vec(64, Duration::from_sec(2.0), inflow);
  vec.worker->set_prefetch_depth(vector_prefetch_depth);
  ref.replay(rounds);
  vec.replay(rounds);
  expect_samples_equal(ref.samples, vec.samples);
  expect_stats_equal(ref, vec);
  // The vector loop's own conservation: every fast-path skip was decided
  // on a candidate lane.
  EXPECT_EQ(vec.worker->stats().lane_skip, vec.worker->stats().fast_path_skips);
}

TEST(WorkerVectorFuzz, MatchesScalarOracleInflowOff) {
  run_oracle(0xA11CE, InflowConfig{}, /*vector_prefetch_depth=*/1);
}

TEST(WorkerVectorFuzz, MatchesScalarOracleInflowOn) {
  InflowConfig inflow;
  inflow.enabled = true;
  inflow.ring_entries = 8;
  inflow.min_interval = Duration{0};
  run_oracle(0xB0B, inflow, /*vector_prefetch_depth=*/2);
}

TEST(WorkerVectorFuzz, MatchesScalarOracleRateLimited) {
  // min_interval > 0 exercises the rate-limit branch and the kOneSided
  // suppression bookkeeping in both workers.
  InflowConfig inflow;
  inflow.enabled = true;
  inflow.ring_entries = 4;
  inflow.min_interval = Duration::from_ms(5);
  run_oracle(0xC0FFEE, inflow, /*vector_prefetch_depth=*/0);
}

// --- the mid-burst completion case ----------------------------------

TEST(WorkerVector, HandshakeCompletingMidBurstIsVisibleToNextLane) {
  // One burst: SYN, SYN-ACK, completing ACK, then a timestamped data
  // segment of the SAME flow, then the server's echo.  The completing
  // ACK is itself a pure-ACK candidate lane; the data segment's
  // provisional verdict was computed before the handshake completed, so
  // the lane loop must flush at the boundary, void the verdict, and
  // re-run the mutating lookup — the segment lands in the established
  // kernel, not the fast-path skip.
  InflowConfig inflow;
  inflow.enabled = true;
  inflow.ring_entries = 8;
  inflow.min_interval = Duration{0};

  auto feed = [&](auto& h) {
    const Ipv4Address client(10, 1, 0, 7);
    const Ipv4Address server(10, 2, 0, 1);
    auto tcp = [&](bool c2s, std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                   std::uint32_t tsval, std::uint32_t tsecr, std::size_t payload,
                   std::int64_t t_ms) {
      TcpFrameSpec s;
      s.src_ip = c2s ? client : server;
      s.dst_ip = c2s ? server : client;
      s.src_port = c2s ? 45'000 : 443;
      s.dst_port = c2s ? 443 : 45'000;
      s.flags = flags;
      s.seq = seq;
      s.ack = ack;
      s.payload_length = payload;
      s.with_timestamps = true;
      s.ts_val = tsval;
      s.ts_ecr = tsecr;
      inject_one(*h.nic, build_tcp_frame(s), Timestamp::from_ms(t_ms));
    };
    tcp(true, TcpFlags::kSyn, 1000, 0, 100, 0, 0, 0);
    tcp(false, TcpFlags::kSyn | TcpFlags::kAck, 5000, 1001, 500, 100, 0, 128);
    tcp(true, TcpFlags::kAck, 1001, 5001, 105, 500, 0, 133);            // completes
    tcp(true, TcpFlags::kAck, 1001, 5001, 200, 500, 300, 134);          // data, same flow
    tcp(false, TcpFlags::kAck, 5001, 1301, 600, 200, 900, 170);         // echo of 200
    while (h.worker->poll_once() != 0) {
    }
  };

  VecHarness vec(1024, Duration::from_sec(30.0), inflow);
  RefHarness ref(1024, Duration::from_sec(30.0), inflow);
  feed(vec);
  feed(ref);
  expect_samples_equal(ref.samples, vec.samples);
  expect_stats_equal(ref, vec);

  // The full-parse path runs the in-flow kernel on handshake segments
  // too (the SYN notes TSval 100), so four samples emerge in order:
  // the SYN-ACK's echo (128 ms), the completing ACK's handshake sample
  // followed by its own echo (5 ms), then the data segment's echo
  // measured by the established-lane kernel (echo of TSval 200 at t=170
  // against the note at t=134) — not skipped and not re-parsed.
  ASSERT_EQ(vec.samples.size(), 4u);
  EXPECT_EQ(static_cast<int>(vec.samples[0].kind), static_cast<int>(SampleKind::kInflow));
  EXPECT_EQ(vec.samples[0].total().ns, Duration::from_ms(128).ns);
  EXPECT_EQ(static_cast<int>(vec.samples[1].kind), static_cast<int>(SampleKind::kHandshake));
  EXPECT_EQ(static_cast<int>(vec.samples[2].kind), static_cast<int>(SampleKind::kInflow));
  EXPECT_EQ(vec.samples[2].total().ns, Duration::from_ms(5).ns);
  EXPECT_EQ(static_cast<int>(vec.samples[3].kind), static_cast<int>(SampleKind::kInflow));
  EXPECT_EQ(vec.samples[3].total().ns, Duration::from_ms(36).ns);
  EXPECT_EQ(vec.worker->stats().inflow_consumed, 2u);
  EXPECT_EQ(vec.worker->stats().lane_established, 2u);
  EXPECT_EQ(vec.worker->stats().fast_path_skips, 0u);
  // Both post-completion lanes ran the mutating lookup: the mid-run
  // flush that completed the handshake voided their batched verdicts.
  EXPECT_GE(vec.worker->stats().lane_revalidated.load(), 2u);
}

// --- shutdown drain -------------------------------------------------

TEST(WorkerVector, ShutdownEmitsEachStagedSampleExactlyOnce) {
  // run()'s drain must flush the batch accumulator exactly once (the
  // terminating empty poll): every completed handshake reaches the sink
  // exactly one time, with no duplicate or empty trailing flush.
  Mempool pool(4096, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, pool);
  std::vector<LatencySample> seen;
  std::atomic<std::uint64_t> flushes{0};
  QueueWorker worker(nic, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> s) {
        flushes.fetch_add(1);
        seen.insert(seen.end(), s.begin(), s.end());
      },
      /*batch_size=*/kMaxLatencyBatch);  // never fills: only the drain flush

  std::atomic<bool> stop{false};
  std::thread t([&] { worker.run(stop); });
  const Ipv4Address server(10, 2, 0, 1);
  for (int i = 0; i < 30; ++i) {
    const Ipv4Address client(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    const auto cport = static_cast<std::uint16_t>(33'000 + i);
    TcpFrameSpec syn;
    syn.src_ip = client;
    syn.dst_ip = server;
    syn.src_port = cport;
    syn.dst_port = 443;
    syn.seq = 100;
    syn.flags = TcpFlags::kSyn;
    inject_one(nic, build_tcp_frame(syn), Timestamp::from_ms(i * 10));
    TcpFrameSpec synack;
    synack.src_ip = server;
    synack.dst_ip = client;
    synack.src_port = 443;
    synack.dst_port = cport;
    synack.seq = 500;
    synack.ack = 101;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    inject_one(nic, build_tcp_frame(synack), Timestamp::from_ms(i * 10 + 2));
    TcpFrameSpec ack;
    ack.src_ip = client;
    ack.dst_ip = server;
    ack.src_port = cport;
    ack.dst_port = 443;
    ack.seq = 101;
    ack.ack = 501;
    ack.flags = TcpFlags::kAck;
    inject_one(nic, build_tcp_frame(ack), Timestamp::from_ms(i * 10 + 3));
  }
  stop.store(true);
  t.join();

  ASSERT_EQ(seen.size(), 30u);
  std::set<std::uint16_t> ports;
  for (const auto& s : seen) ports.insert(s.client_port);
  EXPECT_EQ(ports.size(), 30u);  // each handshake exactly once, none twice
  EXPECT_EQ(worker.stats().batched_samples, 30u);
  EXPECT_EQ(worker.stats().batch_flushes, flushes.load());
  // Every flush the sink saw carried samples — no empty shutdown flush.
  EXPECT_GE(flushes.load(), 1u);
}

}  // namespace
}  // namespace ruru
