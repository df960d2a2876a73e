// Counting-allocator proof of the allocation-free hot paths: once caches
// and output buffers are warm, enriching a batch, feeding the id-keyed
// aggregators, and resolving a whole RX burst through the flow table
// (process_burst) perform zero heap allocations per sample.  Global
// operator new/delete are overridden for this test binary only; the
// counter is read before and after the measured window with no gtest
// machinery in between.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "analytics/aggregator.hpp"
#include "analytics/enricher.hpp"
#include "flow/handshake_tracker.hpp"
#include "flow/worker.hpp"
#include "geo/world.hpp"
#include "inject_one.hpp"
#include "net/packet_builder.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ruru {
namespace {

TEST(ZeroAlloc, EnrichBatchSteadyStateDoesNotAllocate) {
  auto world = build_world(large_world_sites(64));
  ASSERT_TRUE(world.ok());
  Enricher enricher(world.value().geo, world.value().as);

  // A batch cycling through a bounded address set (well inside cache
  // capacity), like heavy-tailed production traffic.
  const auto sites = large_world_sites(64);
  std::vector<LatencySample> batch;
  for (int i = 0; i < 512; ++i) {
    LatencySample s;
    s.client = Ipv4Address(sites[i % 16].block_start + 3);
    s.server = Ipv4Address(sites[16 + (i % 24)].block_start + 9);
    s.syn_time = Timestamp::from_ms(i);
    s.synack_time = Timestamp::from_ms(i + 100);
    s.ack_time = Timestamp::from_ms(i + 105);
    batch.push_back(s);
  }

  std::vector<EnrichedSample> out;
  out.reserve(batch.size());

  // Warm-up: populates the flat cache and faults in the output buffer.
  enricher.enrich_batch(batch, out);
  out.clear();

  const std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 10; ++round) {
    out.clear();
    enricher.enrich_batch(batch, out);
  }
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after - before, 0u) << "enrich_batch allocated in steady state";
  EXPECT_EQ(out.size(), batch.size());
  EXPECT_EQ(enricher.stats().cache_misses, 40u);  // 16 + 24 distinct endpoints, warm-up only
}

TEST(ZeroAlloc, AggregatorAddOnWarmPairsDoesNotAllocate) {
  auto world = build_world(large_world_sites(64));
  ASSERT_TRUE(world.ok());
  Enricher enricher(world.value().geo, world.value().as);
  LatencyAggregator cities(LatencyAggregator::Mode::kCityPair);
  LatencyAggregator ases(LatencyAggregator::Mode::kAsPair);

  const auto sites = large_world_sites(64);
  LatencySample s;
  s.client = Ipv4Address(sites[0].block_start + 1);
  s.server = Ipv4Address(sites[1].block_start + 1);
  s.syn_time = Timestamp::from_ms(0);
  s.synack_time = Timestamp::from_ms(100);
  s.ack_time = Timestamp::from_ms(105);

  // Warm-up inserts the pair nodes and any lazy histogram storage.
  for (int i = 0; i < 32; ++i) {
    const EnrichedSample e = enricher.enrich(s);
    cities.add(e);
    ases.add(e);
  }

  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1'000; ++i) {
    const EnrichedSample e = enricher.enrich(s);
    cities.add(e);
    ases.add(e);
  }
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after - before, 0u) << "warm aggregator path allocated";
}

TEST(ZeroAlloc, ProcessBurstSteadyStateDoesNotAllocate) {
  // One RX burst of complete handshakes: 10 flows x (SYN, SYN-ACK, ACK).
  // Each round inserts, matches and erases every flow, walking the whole
  // group-probed table path — probes, claims, reclamations, sample
  // emission — which must stay allocation-free once buffers are sized.
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 10; ++i) {
    TcpFrameSpec syn;
    syn.src_ip = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    syn.dst_ip = Ipv4Address(10, 2, 0, 1);
    syn.src_port = static_cast<std::uint16_t>(40'000 + i);
    syn.dst_port = 443;
    syn.seq = 1000u + static_cast<std::uint32_t>(i);
    syn.flags = TcpFlags::kSyn;
    frames.push_back(build_tcp_frame(syn));

    TcpFrameSpec synack;
    synack.src_ip = syn.dst_ip;
    synack.dst_ip = syn.src_ip;
    synack.src_port = 443;
    synack.dst_port = syn.src_port;
    synack.seq = 5000u + static_cast<std::uint32_t>(i);
    synack.ack = syn.seq + 1;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    frames.push_back(build_tcp_frame(synack));

    TcpFrameSpec ack;
    ack.src_ip = syn.src_ip;
    ack.dst_ip = syn.dst_ip;
    ack.src_port = syn.src_port;
    ack.dst_port = 443;
    ack.seq = syn.seq + 1;
    ack.ack = synack.seq + 1;
    ack.flags = TcpFlags::kAck;
    frames.push_back(build_tcp_frame(ack));
  }

  std::vector<TrackedPacket> burst;
  burst.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    PacketView view;
    ASSERT_EQ(parse_packet(frames[i], view), ParseStatus::kOk);
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(view.tuple()).hash());
    burst.push_back({view, Timestamp::from_ms(static_cast<std::int64_t>(i)), rss});
  }

  HandshakeTracker tracker(1 << 10);
  std::vector<LatencySample> out;
  out.reserve(frames.size());

  // Warm-up: first burst sizes nothing lazily (the table is fully built
  // at construction), but run one anyway to mirror production state.
  tracker.process_burst(burst, 0, out);
  ASSERT_EQ(out.size(), 10u);
  out.clear();

  const std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 100; ++round) {
    out.clear();
    tracker.process_burst(burst, 0, out);
    tracker.sweep(Timestamp::from_ms(30), 4);
  }
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after - before, 0u) << "process_burst allocated in steady state";
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(tracker.table().size(), 0u);  // every handshake completed and erased
}

TEST(ZeroAlloc, InflowKernelSteadyStateDoesNotAllocate) {
  // Full flow lifecycles with TCP timestamps and the in-flow kernel on:
  // 8 flows x (handshake, request, response, ack, FIN).  Every TSval note
  // is either consumed by its echo or erased with the flow at FIN, so each
  // round replays against identical table state — the matching kernel's
  // rings live inside the flow table's preallocated cold storage and must
  // never touch the heap.
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 8; ++i) {
    const auto client = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    const auto server = Ipv4Address(10, 2, 0, 1);
    const auto cport = static_cast<std::uint16_t>(41'000 + i);
    auto tcp = [&](bool c2s, std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                   std::uint32_t tsval, std::uint32_t tsecr, std::size_t payload) {
      TcpFrameSpec s;
      s.src_ip = c2s ? client : server;
      s.dst_ip = c2s ? server : client;
      s.src_port = c2s ? cport : 443;
      s.dst_port = c2s ? 443 : cport;
      s.flags = flags;
      s.seq = seq;
      s.ack = ack;
      s.payload_length = payload;
      s.with_timestamps = true;
      s.ts_val = tsval;
      s.ts_ecr = tsecr;
      frames.push_back(build_tcp_frame(s));
    };
    tcp(true, TcpFlags::kSyn, 1000, 0, 100, 0, 0);
    tcp(false, TcpFlags::kSyn | TcpFlags::kAck, 5000, 1001, 500, 100, 0);
    tcp(true, TcpFlags::kAck, 1001, 5001, 105, 500, 0);
    tcp(true, TcpFlags::kAck, 1001, 5001, 200, 500, 300);   // request
    tcp(false, TcpFlags::kAck, 5001, 1301, 600, 200, 900);  // response: external echo
    tcp(true, TcpFlags::kAck, 1301, 5901, 210, 600, 0);     // client ack: internal echo
    tcp(true, TcpFlags::kFin | TcpFlags::kAck, 1301, 5901, 220, 600, 0);
  }

  std::vector<TrackedPacket> burst;
  burst.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    PacketView view;
    ASSERT_EQ(parse_packet(frames[i], view), ParseStatus::kOk);
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(view.tuple()).hash());
    burst.push_back({view, Timestamp::from_ms(static_cast<std::int64_t>(i)), rss});
  }

  InflowConfig icfg;
  icfg.enabled = true;
  icfg.ring_entries = 8;
  icfg.min_interval = Duration{0};
  HandshakeTracker tracker(1 << 10, Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow,
                           ProbeKernel::kAuto, icfg);
  std::vector<LatencySample> out;
  out.reserve(frames.size());

  tracker.process_burst(burst, 0, out);
  const std::size_t per_round = out.size();
  ASSERT_GT(per_round, 8u);  // handshake samples plus in-flow echoes
  ASSERT_EQ(tracker.table().size(), 0u);
  out.clear();

  const std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 100; ++round) {
    out.clear();
    tracker.process_burst(burst, 0, out);
  }
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after - before, 0u) << "in-flow kernel allocated in steady state";
  EXPECT_EQ(out.size(), per_round);
  EXPECT_GT(tracker.inflow_stats().ts_matches.load(), 0u);
  EXPECT_EQ(tracker.table().size(), 0u);
}

/// Full flow lifecycles through the NIC and the vector worker loop,
/// injected as one-frame inject_burst() calls or as whole bursts; 100
/// warm rounds must not touch the heap.
void expect_vector_poll_loop_steady_state_is_allocation_free(bool burst_inject) {
  // The whole vectorized worker path — NIC inject, rx_burst, the SoA
  // descriptor fill, batched pre-parse + branchless classify, batched
  // flow-table probes, run-partitioned resolve with the in-flow kernel,
  // and the sweep — over full flow lifecycles (handshake, timestamped
  // data both directions, FIN).  Lanes of every class appear in each
  // burst; once the worker's fixed lanes and reused buffers are warm,
  // nothing may touch the heap.
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 8; ++i) {
    const auto client = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1));
    const auto server = Ipv4Address(10, 2, 0, 1);
    const auto cport = static_cast<std::uint16_t>(42'000 + i);
    auto tcp = [&](bool c2s, std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                   std::uint32_t tsval, std::uint32_t tsecr, std::size_t payload) {
      TcpFrameSpec s;
      s.src_ip = c2s ? client : server;
      s.dst_ip = c2s ? server : client;
      s.src_port = c2s ? cport : 443;
      s.dst_port = c2s ? 443 : cport;
      s.flags = flags;
      s.seq = seq;
      s.ack = ack;
      s.payload_length = payload;
      s.with_timestamps = true;
      s.ts_val = tsval;
      s.ts_ecr = tsecr;
      frames.push_back(build_tcp_frame(s));
    };
    tcp(true, TcpFlags::kSyn, 1000, 0, 100, 0, 0);
    tcp(false, TcpFlags::kSyn | TcpFlags::kAck, 5000, 1001, 500, 100, 0);
    tcp(true, TcpFlags::kAck, 1001, 5001, 105, 500, 0);
    tcp(true, TcpFlags::kAck, 1001, 5001, 200, 500, 300);   // request (candidate lane)
    tcp(false, TcpFlags::kAck, 5001, 1301, 600, 200, 900);  // response: echo
    tcp(true, TcpFlags::kFin | TcpFlags::kAck, 1301, 5901, 220, 600, 0);
  }

  Mempool pool(4096, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, pool);
  InflowConfig icfg;
  icfg.enabled = true;
  icfg.ring_entries = 8;
  icfg.min_interval = Duration{0};
  std::uint64_t delivered = 0;
  QueueWorker worker(nic, 0, 1 << 10, [&](const LatencySample&) { ++delivered; },
                     Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow, icfg);

  // Burst injection stages bulk-allocated mbufs in reused scratch and
  // publishes per queue; the worker hands each polled burst back with
  // one free_bulk.
  std::vector<RxFrame> burst(frames.size());
  auto round = [&](std::int64_t base_ms) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Timestamp t = Timestamp::from_ms(base_ms + static_cast<std::int64_t>(i));
      if (burst_inject) {
        burst[i] = RxFrame{frames[i], t};
      } else {
        inject_one(nic, frames[i], t);
      }
    }
    if (burst_inject) {
      for (std::size_t i = 0; i < burst.size(); i += QueueWorker::kBurst) {
        const std::size_t len = std::min(QueueWorker::kBurst, burst.size() - i);
        nic.inject_burst(std::span<const RxFrame>(burst).subspan(i, len));
      }
    }
    while (worker.poll_once() != 0) {
    }
  };

  // Warm-up: fault in the mempool, descriptor lanes and staging buffers.
  round(0);
  const std::uint64_t per_round = delivered;
  ASSERT_GT(per_round, 8u);  // handshakes plus in-flow echoes
  ASSERT_EQ(worker.tracker().table().size(), 0u);  // every flow FIN-erased

  const std::uint64_t before = g_alloc_count.load();
  for (int r = 1; r <= 100; ++r) {
    round(r * 10);
  }
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after - before, 0u) << "vector poll loop allocated in steady state";
  EXPECT_EQ(delivered, per_round * 101);
  EXPECT_GT(worker.stats().lane_established.load(), 0u);
  EXPECT_EQ(worker.tracker().table().size(), 0u);
  EXPECT_EQ(pool.available(), pool.capacity());  // every mbuf back, exactly once
}

TEST(ZeroAlloc, VectorPollLoopSteadyStateDoesNotAllocate) {
  expect_vector_poll_loop_steady_state_is_allocation_free(/*burst_inject=*/false);
}

TEST(ZeroAlloc, VectorPollLoopBurstInjectSteadyStateDoesNotAllocate) {
  expect_vector_poll_loop_steady_state_is_allocation_free(/*burst_inject=*/true);
}

}  // namespace
}  // namespace ruru
