#include "driver/nic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>

#include "net/packet_builder.hpp"
#include "net/packet_view.hpp"
#include "inject_one.hpp"
#include "obs/trace.hpp"

namespace ruru {
namespace {

std::vector<std::uint8_t> syn_frame(Ipv4Address src, std::uint16_t sp, Ipv4Address dst,
                                    std::uint16_t dp) {
  TcpFrameSpec spec;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.src_port = sp;
  spec.dst_port = dp;
  spec.flags = TcpFlags::kSyn;
  return build_tcp_frame(spec);
}

class SimNicTest : public ::testing::Test {
 protected:
  SimNicTest() : pool_(1024, 2048) {}
  Mempool pool_;
};

TEST_F(SimNicTest, InjectAndBurstReceive) {
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 0, 0, 1), 1000, Ipv4Address(10, 0, 0, 2), 80);
  ASSERT_TRUE(inject_one(nic, frame, Timestamp::from_ms(5)));
  EXPECT_EQ(nic.stats().rx_packets, 1u);
  EXPECT_EQ(nic.stats().rx_bytes, frame.size());

  std::array<MbufPtr, 32> burst;
  const std::size_t n = nic.rx_burst(0, burst);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(burst[0]->length(), frame.size());
  EXPECT_EQ(burst[0]->timestamp, Timestamp::from_ms(5));
  EXPECT_EQ(burst[0]->queue_id, 0);
  EXPECT_EQ(std::memcmp(burst[0]->data(), frame.data(), frame.size()), 0);
}

TEST_F(SimNicTest, BothDirectionsLandOnSameQueue) {
  NicConfig cfg;
  cfg.num_queues = 8;
  SimNic nic(cfg, pool_);
  // 200 random flows; SYN direction and reply direction must always
  // match queues thanks to the symmetric RSS key.
  for (int i = 0; i < 200; ++i) {
    const Ipv4Address client(10, 1, 0, static_cast<std::uint8_t>(i));
    const Ipv4Address server(10, 2, 0, static_cast<std::uint8_t>(255 - i));
    const auto sp = static_cast<std::uint16_t>(10'000 + i);
    const auto fwd = syn_frame(client, sp, server, 443);
    const auto rev = syn_frame(server, 443, client, sp);
    EXPECT_EQ(nic.hash_frame(fwd), nic.hash_frame(rev)) << "flow " << i;
  }
}

TEST_F(SimNicTest, AsymmetricKeySplitsDirections) {
  NicConfig cfg;
  cfg.num_queues = 8;
  cfg.rss_key = default_rss_key();
  SimNic nic(cfg, pool_);
  int split = 0;
  for (int i = 0; i < 100; ++i) {
    const Ipv4Address client(10, 1, 0, static_cast<std::uint8_t>(i));
    const Ipv4Address server(10, 2, 0, 1);
    const auto sp = static_cast<std::uint16_t>(10'000 + i);
    if (nic.hash_frame(syn_frame(client, sp, server, 443)) % 8 !=
        nic.hash_frame(syn_frame(server, 443, client, sp)) % 8) {
      ++split;
    }
  }
  EXPECT_GT(split, 50);  // most flows split across queues: broken for Ruru
}

TEST_F(SimNicTest, QueueFullDrops) {
  NicConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_depth = 16;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  int accepted = 0;
  for (int i = 0; i < 40; ++i) {
    if (inject_one(nic, frame, Timestamp{})) ++accepted;
  }
  EXPECT_EQ(accepted, 16);
  EXPECT_EQ(nic.stats().dropped_queue_full, 24u);
  EXPECT_EQ(nic.stats().rx_packets, 16u);
}

TEST_F(SimNicTest, MempoolExhaustionDrops) {
  Mempool tiny(4, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, tiny);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  for (int i = 0; i < 10; ++i) inject_one(nic, frame, Timestamp{});
  EXPECT_EQ(nic.stats().rx_packets, 4u);
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 6u);
  // Draining the queue frees mbufs for new packets.
  std::array<MbufPtr, 8> burst;
  EXPECT_EQ(nic.rx_burst(0, burst), 4u);
  for (auto& b : burst) b.reset();
  EXPECT_TRUE(inject_one(nic, frame, Timestamp{}));
}

TEST_F(SimNicTest, OversizeFrameDropped) {
  Mempool small(8, 64);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, small);
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address(1, 1, 1, 1);
  spec.dst_ip = Ipv4Address(2, 2, 2, 2);
  spec.payload_length = 100;  // 154-byte frame vs 64-byte buffers
  const auto frame = build_tcp_frame(spec);
  ASSERT_GT(frame.size(), 64u);
  EXPECT_FALSE(inject_one(nic, frame, Timestamp{}));
  EXPECT_EQ(nic.stats().dropped_oversize, 1u);
}

TEST_F(SimNicTest, NonIpHashesToQueueZero) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  const auto arp = build_non_ip_frame();
  ASSERT_TRUE(inject_one(nic, arp, Timestamp{}));
  std::array<MbufPtr, 4> burst;
  EXPECT_EQ(nic.rx_burst(0, burst), 1u);
}

TEST_F(SimNicTest, MalformedIhlHashesToQueueZero) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 32000, Ipv4Address(10, 2, 0, 3), 80);
  ASSERT_NE(nic.hash_frame(frame), 0u);  // valid header hashes normally
  // ihl=4 (< 5): the "L4 offset" would sit inside the IP header and the
  // hash would be computed over garbage. Must hash to 0 / queue 0, the
  // same treatment as any other non-TCP frame.
  frame[14] = 0x44;  // version 4, ihl 4
  EXPECT_EQ(nic.hash_frame(frame), 0u);
  ASSERT_TRUE(inject_one(nic, frame, Timestamp{}));
  std::array<MbufPtr, 4> burst;
  EXPECT_EQ(nic.rx_burst(0, burst), 1u);
}

TEST_F(SimNicTest, InjectBurstMatchesPerFrameInject) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic burst_nic(cfg, pool_);
  Mempool pool2(1024, 2048);
  SimNic frame_nic(cfg, pool2);

  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(syn_frame(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i)),
                               static_cast<std::uint16_t>(10'000 + i), Ipv4Address(10, 2, 0, 1),
                               443));
  }
  std::vector<RxFrame> burst;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    burst.push_back({frames[i], Timestamp::from_us(static_cast<std::int64_t>(i))});
    ASSERT_TRUE(
        inject_one(frame_nic, frames[i], Timestamp::from_us(static_cast<std::int64_t>(i))));
  }
  const auto queued = std::make_unique<bool[]>(frames.size());
  EXPECT_EQ(burst_nic.inject_burst(burst, queued.get()), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) EXPECT_TRUE(queued[i]);
  EXPECT_EQ(burst_nic.stats().rx_packets, frame_nic.stats().rx_packets);
  EXPECT_EQ(burst_nic.stats().rx_bytes, frame_nic.stats().rx_bytes);

  // Same frames land on the same queues with the same metadata.
  for (std::uint16_t q = 0; q < 4; ++q) {
    std::array<MbufPtr, 64> a, b;
    const std::size_t na = burst_nic.rx_burst(q, a);
    const std::size_t nb = frame_nic.rx_burst(q, b);
    ASSERT_EQ(na, nb) << "queue " << q;
    for (std::size_t i = 0; i < na; ++i) {
      EXPECT_EQ(a[i]->rss_hash, b[i]->rss_hash);
      EXPECT_EQ(a[i]->timestamp, b[i]->timestamp);
      EXPECT_EQ(a[i]->length(), b[i]->length());
    }
  }
}

TEST_F(SimNicTest, InjectBurstPartialDropOnFullQueue) {
  NicConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_depth = 16;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  std::vector<RxFrame> burst(40, RxFrame{frame, Timestamp{}});
  const auto queued = std::make_unique<bool[]>(burst.size());
  EXPECT_EQ(nic.inject_burst(burst, queued.get()), 16u);
  EXPECT_EQ(nic.stats().rx_packets, 16u);
  EXPECT_EQ(nic.stats().dropped_queue_full, 24u);
  // The leading 16 queued, the tail dropped — and the flags say which.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(queued[i]);
  for (std::size_t i = 16; i < 40; ++i) EXPECT_FALSE(queued[i]);
  // Dropped mbufs returned to the pool: draining lets a new burst in.
  std::array<MbufPtr, 16> rx;
  EXPECT_EQ(nic.rx_burst(0, rx), 16u);
  for (auto& m : rx) m.reset();
  EXPECT_EQ(nic.inject_burst(std::span<const RxFrame>(burst.data(), 4)), 4u);
}

TEST_F(SimNicTest, InjectBurstMempoolExhaustion) {
  Mempool tiny(4, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, tiny);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  std::vector<RxFrame> burst(10, RxFrame{frame, Timestamp{}});
  EXPECT_EQ(nic.inject_burst(burst), 4u);
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 6u);
}

TEST_F(SimNicTest, InjectBurstSpreadsAcrossQueues) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<RxFrame> burst;
  for (int i = 0; i < 128; ++i) {
    frames.push_back(syn_frame(Ipv4Address(10, 1, static_cast<std::uint8_t>(i), 1),
                               static_cast<std::uint16_t>(20'000 + i),
                               Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(i)), 443));
  }
  for (const auto& f : frames) burst.push_back({f, Timestamp{}});
  EXPECT_EQ(nic.inject_burst(burst), 128u);
  std::size_t total = 0;
  std::size_t busy_queues = 0;
  for (std::uint16_t q = 0; q < 4; ++q) {
    const std::size_t occ = nic.queue_occupancy(q);
    total += occ;
    if (occ > 0) ++busy_queues;
  }
  EXPECT_EQ(total, 128u);
  EXPECT_GT(busy_queues, 1u);  // RSS actually spread the burst
}

TEST_F(SimNicTest, RssHashStoredInMbufMatchesHashFrame) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 32000, Ipv4Address(10, 2, 0, 3), 80);
  const std::uint32_t expected = nic.hash_frame(frame);
  ASSERT_TRUE(inject_one(nic, frame, Timestamp{}));
  const auto queue = static_cast<std::uint16_t>(expected % 4);
  std::array<MbufPtr, 4> burst;
  ASSERT_EQ(nic.rx_burst(queue, burst), 1u);
  EXPECT_EQ(burst[0]->rss_hash, expected);
  EXPECT_EQ(burst[0]->queue_id, queue);
}

/// The queue `nic`'s RSS steers `frame` to.
std::uint16_t queue_of(const SimNic& nic, std::span<const std::uint8_t> frame) {
  return static_cast<std::uint16_t>(nic.hash_frame(frame) % nic.num_queues());
}

/// `n` distinct SYN frames that all hash to queue `q` under `nic`'s RSS.
std::vector<std::vector<std::uint8_t>> frames_for_queue(const SimNic& nic, std::uint16_t q,
                                                        std::size_t n, std::size_t payload = 0) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint16_t port = 1000; out.size() < n; ++port) {
    TcpFrameSpec spec;
    spec.src_ip = Ipv4Address(10, 1, 0, 1);
    spec.dst_ip = Ipv4Address(10, 2, 0, 1);
    spec.src_port = port;
    spec.dst_port = 443;
    spec.flags = TcpFlags::kSyn;
    spec.payload_length = payload;
    auto f = build_tcp_frame(spec);
    if (queue_of(nic, f) == q) out.push_back(std::move(f));
  }
  return out;
}

TEST_F(SimNicTest, InjectBurstAllocFailuresMatchNoMbufDrops) {
  Mempool tiny(4, 128);
  NicConfig cfg;
  cfg.num_queues = 2;
  SimNic nic(cfg, tiny);
  const auto q0 = frames_for_queue(nic, 0, 4);
  const auto q1 = frames_for_queue(nic, 1, 4);
  const auto big = frames_for_queue(nic, 0, 3, 200);
  std::vector<RxFrame> burst;
  for (std::size_t i = 0; i < 4; ++i) {
    burst.push_back({q0[i], Timestamp::from_ns(static_cast<std::int64_t>(i))});
    if (i < big.size()) burst.push_back({big[i], Timestamp{}});
    burst.push_back({q1[i], Timestamp::from_ns(static_cast<std::int64_t>(i))});
  }
  const auto queued = std::make_unique<bool[]>(burst.size());
  // The first 4 frames that fit take the pool; the other 4 fit but find
  // no buffer, and the 3 oversize frames never asked for one.
  EXPECT_EQ(nic.inject_burst(burst, queued.get()), 4u);
  EXPECT_EQ(nic.stats().dropped_oversize, 3u);
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 4u);
  EXPECT_EQ(tiny.alloc_failures(), 4u);
  // Exactly the first 4 frames that fit were queued, in arrival order.
  std::size_t fitting = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const bool fits = burst[i].data.size() <= tiny.buf_size();
    EXPECT_EQ(queued[i], fits && fitting < 4) << "frame " << i;
    if (fits) ++fitting;
  }

  // Two one-frame bursts into the exhausted pool.
  EXPECT_FALSE(inject_one(nic, q0[0], Timestamp{}));
  EXPECT_FALSE(inject_one(nic, big[0], Timestamp{}));
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 5u);
  EXPECT_EQ(nic.stats().dropped_oversize, 4u);
  EXPECT_EQ(tiny.alloc_failures(), nic.stats().dropped_no_mbuf.load());
}

TEST_F(SimNicTest, RingFullDropsGoBackToThePool) {
  NicConfig cfg;
  cfg.num_queues = 2;
  cfg.queue_depth = 4;
  SimNic nic(cfg, pool_);
  const auto q0 = frames_for_queue(nic, 0, 10);
  const auto q1 = frames_for_queue(nic, 1, 3);
  std::vector<RxFrame> burst;
  for (const auto& f : q0) burst.push_back({f, Timestamp{}});
  for (const auto& f : q1) burst.push_back({f, Timestamp{}});
  EXPECT_EQ(nic.inject_burst(burst), 7u);
  EXPECT_EQ(nic.stats().dropped_queue_full, 6u);
  // Only the queued mbufs are out of the pool.
  EXPECT_EQ(pool_.available(), pool_.capacity() - 7);

  std::array<MbufPtr, 8> rx;
  for (std::uint16_t q = 0; q < 2; ++q) {
    const std::size_t n = nic.rx_burst(q, rx);
    Mempool::free_bulk(std::span<MbufPtr>(rx).first(n));
  }
  EXPECT_EQ(pool_.available(), pool_.capacity());
  EXPECT_EQ(pool_.alloc_failures(), 0u);
}

TEST_F(SimNicTest, RoomIsTheSmallerOfFreeMbufsAndRingSlots) {
  Mempool tiny(6, 2048);
  NicConfig cfg;
  cfg.num_queues = 2;
  cfg.queue_depth = 4;
  SimNic nic(cfg, tiny);
  EXPECT_EQ(nic.room(), 4u);  // every ring has 4 slots, the pool 6 mbufs
  const auto q0 = frames_for_queue(nic, 0, 3);
  std::vector<RxFrame> burst;
  for (const auto& f : q0) burst.push_back({f, Timestamp{}});
  ASSERT_EQ(nic.inject_burst(burst), 3u);
  EXPECT_EQ(nic.room(), 1u);  // queue 0's ring has one slot left
  const auto q1 = frames_for_queue(nic, 1, 2);
  burst.clear();
  for (const auto& f : q1) burst.push_back({f, Timestamp{}});
  ASSERT_EQ(nic.inject_burst(burst), 2u);
  EXPECT_EQ(nic.room(), 1u);  // 1 mbuf, 1 slot on queue 0, 2 on queue 1

  std::array<MbufPtr, 4> rx;
  Mempool::free_bulk(std::span<MbufPtr>(rx).first(nic.rx_burst(0, rx)));
  EXPECT_EQ(nic.room(), 2u);  // queue 1's ring is now the tightest
  Mempool::free_bulk(std::span<MbufPtr>(rx).first(nic.rx_burst(1, rx)));
  EXPECT_EQ(nic.room(), 4u);
}

TEST_F(SimNicTest, OneQueueBurstKeepsArrivalOrderOnAFullRing) {
  // Every frame bound for queue 2 of 4: the burst is already grouped, so
  // the run is published as it arrived and the ring refuses its tail.
  NicConfig cfg;
  cfg.num_queues = 4;
  cfg.queue_depth = 8;
  SimNic nic(cfg, pool_);
  const auto q2 = frames_for_queue(nic, 2, 12);
  std::vector<RxFrame> burst;
  for (std::size_t i = 0; i < q2.size(); ++i) {
    burst.push_back({q2[i], Timestamp::from_us(static_cast<std::int64_t>(i))});
  }
  const auto queued = std::make_unique<bool[]>(burst.size());
  EXPECT_EQ(nic.inject_burst(burst, queued.get()), 8u);
  for (std::size_t i = 0; i < burst.size(); ++i) EXPECT_EQ(queued[i], i < 8) << i;
  EXPECT_EQ(nic.stats().dropped_queue_full, 4u);
  EXPECT_EQ(pool_.available(), pool_.capacity() - 8);

  std::array<MbufPtr, 16> rx;
  ASSERT_EQ(nic.rx_burst(2, rx), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rx[i]->timestamp, Timestamp::from_us(static_cast<std::int64_t>(i)));
    EXPECT_EQ(rx[i]->queue_id, 2u);
  }
  Mempool::free_bulk(std::span<MbufPtr>(rx).first(8));
  EXPECT_EQ(pool_.available(), pool_.capacity());
}

TEST_F(SimNicTest, RecycledMbufNeverCarriesStaleMetadata) {
  // A one-buffer pool shared by two ports: every frame lands in the same
  // recycled descriptor, and each must read back only its own metadata.
  // Port 3 traces every hashed flow; port 0 has sampling off and hashes
  // the non-IP frame to 0.
  Mempool one(1, 2048);
  NicConfig traced;
  traced.num_queues = 4;
  traced.port_id = 3;
  traced.trace_sample_n = 1;
  SimNic nic_a(traced, one);
  NicConfig plain;
  plain.num_queues = 1;
  SimNic nic_b(plain, one);

  const auto big = frames_for_queue(nic_a, 2, 1, 1000)[0];
  const auto other = frames_for_queue(nic_a, 1, 1)[0];
  const auto arp = build_non_ip_frame(42);
  ASSERT_GT(big.size(), other.size());
  ASSERT_GT(other.size(), arp.size());

  const Mbuf* first = nullptr;
  const auto check = [&](SimNic& nic, std::uint32_t sample_n, std::uint16_t port,
                         const std::vector<std::uint8_t>& frame, Timestamp ts) {
    ASSERT_TRUE(inject_one(nic, frame, ts));
    const auto q = queue_of(nic, frame);
    std::array<MbufPtr, 4> rx;
    ASSERT_EQ(nic.rx_burst(q, rx), 1u);
    const Mbuf& m = *rx[0];
    if (first == nullptr) first = &m;
    EXPECT_EQ(&m, first);  // the same descriptor every time
    EXPECT_EQ(m.length(), frame.size());
    EXPECT_EQ(m.timestamp, ts);
    EXPECT_EQ(m.rss_hash, nic.hash_frame(frame));
    EXPECT_EQ(m.queue_id, q);
    EXPECT_EQ(m.port_id, port);
    EXPECT_EQ(m.trace_id, obs::trace_id_for(m.rss_hash, sample_n));
    EXPECT_EQ(std::memcmp(m.data(), frame.data(), frame.size()), 0);
    Mempool::free_bulk(std::span<MbufPtr>(rx).first(1));
  };
  check(nic_a, 1, 3, big, Timestamp::from_ms(9));
  if (obs::kTraceCompiled) {
    EXPECT_NE(obs::trace_id_for(nic_a.hash_frame(big), 1), 0u);
  }
  check(nic_b, 0, 0, arp, Timestamp::from_ms(1));
  check(nic_a, 1, 3, other, Timestamp::from_ms(2));
  check(nic_b, 0, 0, other, Timestamp::from_ms(3));
  EXPECT_EQ(one.available(), 1u);
  EXPECT_EQ(one.alloc_failures(), 0u);
}

}  // namespace
}  // namespace ruru
