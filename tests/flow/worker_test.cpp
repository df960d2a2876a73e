#include "flow/worker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "inject_one.hpp"
#include "net/packet_builder.hpp"

namespace ruru {
namespace {

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : pool_(4096, 2048) {
    NicConfig cfg;
    cfg.num_queues = 1;
    nic_ = std::make_unique<SimNic>(cfg, pool_);
  }

  void inject_handshake(Ipv4Address client, std::uint16_t cport, Timestamp t0, Duration external,
                        Duration internal) {
    TcpFrameSpec syn;
    syn.src_ip = client;
    syn.dst_ip = server_;
    syn.src_port = cport;
    syn.dst_port = 443;
    syn.seq = 100;
    syn.flags = TcpFlags::kSyn;
    inject_one(*nic_, build_tcp_frame(syn), t0);

    TcpFrameSpec synack;
    synack.src_ip = server_;
    synack.dst_ip = client;
    synack.src_port = 443;
    synack.dst_port = cport;
    synack.seq = 500;
    synack.ack = 101;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    inject_one(*nic_, build_tcp_frame(synack), t0 + external);

    TcpFrameSpec ack;
    ack.src_ip = client;
    ack.dst_ip = server_;
    ack.src_port = cport;
    ack.dst_port = 443;
    ack.seq = 101;
    ack.ack = 501;
    ack.flags = TcpFlags::kAck;
    inject_one(*nic_, build_tcp_frame(ack), t0 + external + internal);
  }

  /// A pure-ACK data segment (post-handshake traffic) at time `t_ms`.
  void inject_data_segment(Ipv4Address src, std::uint16_t sp, Ipv4Address dst, std::uint16_t dp,
                           std::int64_t t_ms) {
    TcpFrameSpec data;
    data.src_ip = src;
    data.dst_ip = dst;
    data.src_port = sp;
    data.dst_port = dp;
    data.seq = 101;
    data.ack = 501;
    data.flags = TcpFlags::kAck;
    data.payload_length = 64;
    inject_one(*nic_, build_tcp_frame(data), Timestamp::from_ms(t_ms));
  }

  Mempool pool_;
  std::unique_ptr<SimNic> nic_;
  Ipv4Address server_{Ipv4Address(10, 2, 0, 1)};
};

TEST_F(WorkerTest, PollProcessesHandshake) {
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(0),
                   Duration::from_ms(128), Duration::from_ms(5));
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].external().ns, Duration::from_ms(128).ns);
  EXPECT_EQ(samples[0].internal().ns, Duration::from_ms(5).ns);
  EXPECT_EQ(worker.stats().packets, 3u);
  EXPECT_EQ(worker.stats().parse_status[0], 3u);  // all kOk
}

TEST_F(WorkerTest, CountsParseStatuses) {
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  inject_one(*nic_, build_non_ip_frame(), Timestamp{});
  inject_one(*nic_,
             build_udp_frame(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2, 10),
             Timestamp{});
  while (worker.poll_once() != 0) {
  }
  EXPECT_EQ(worker.stats().parse_status[static_cast<int>(ParseStatus::kNotIp)], 1u);
  EXPECT_EQ(worker.stats().parse_status[static_cast<int>(ParseStatus::kNotTcp)], 1u);
}

TEST_F(WorkerTest, SynSinkFiresPerSyn) {
  std::vector<std::pair<Timestamp, Ipv4Address>> syns;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_syn_sink([&](Timestamp t, Ipv4Address server) { syns.emplace_back(t, server); });
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(10),
                   Duration::from_ms(100), Duration::from_ms(5));
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(syns.size(), 1u);  // only the SYN, not SYN-ACK/ACK
  EXPECT_EQ(syns[0].first.ns, Timestamp::from_ms(10).ns);
  EXPECT_EQ(syns[0].second, server_);
}

TEST_F(WorkerTest, RunDrainsOnStop) {
  std::atomic<int> samples{0};
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample&) { samples.fetch_add(1); });

  std::atomic<bool> stop{false};
  std::thread t([&] { worker.run(stop); });

  for (int i = 0; i < 50; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(20'000 + i), Timestamp::from_ms(i * 10),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  stop.store(true);
  t.join();
  // run() drains the queue after stop: all 50 handshakes measured.
  EXPECT_EQ(samples.load(), 50);
}

TEST_F(WorkerTest, BatchSinkFlushesWhenFull) {
  std::vector<std::size_t> flush_sizes;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) { flush_sizes.push_back(samples.size()); },
      /*batch_size=*/2);
  for (int i = 0; i < 5; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(30'000 + i), Timestamp::from_ms(i),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  while (worker.poll_once() != 0) {
  }
  // 5 samples at batch=2: two full flushes, then the empty poll flushes
  // the remainder (end-of-burst idle).
  ASSERT_EQ(flush_sizes.size(), 3u);
  EXPECT_EQ(flush_sizes[0], 2u);
  EXPECT_EQ(flush_sizes[1], 2u);
  EXPECT_EQ(flush_sizes[2], 1u);
  EXPECT_EQ(worker.stats().batch_flushes, 3u);
  EXPECT_EQ(worker.stats().batched_samples, 5u);
}

TEST_F(WorkerTest, BatchSinkIdleFlushDeliversPartialBatch) {
  std::vector<LatencySample> seen;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) {
        seen.insert(seen.end(), samples.begin(), samples.end());
      },
      /*batch_size=*/64);
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(0),
                   Duration::from_ms(128), Duration::from_ms(5));
  while (worker.poll_once() != 0) {
  }
  // Far below batch_size, but the empty poll must not sit on the sample.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].external().ns, Duration::from_ms(128).ns);
}

TEST_F(WorkerTest, BatchSinkLingerFlushesOldSamples) {
  std::vector<std::size_t> flush_sizes;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) { flush_sizes.push_back(samples.size()); },
      /*batch_size=*/64, /*linger=*/Duration::from_ms(10));
  // Two completions 50 ms apart in capture time, processed in one burst:
  // the second sample's timestamp exceeds the linger and forces a flush
  // even though the batch is nowhere near full.
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(0),
                   Duration::from_ms(1), Duration::from_ms(1));
  inject_handshake(Ipv4Address(10, 1, 0, 2), 40'001, Timestamp::from_ms(50),
                   Duration::from_ms(1), Duration::from_ms(1));
  while (worker.poll_once() != 0) {
  }
  ASSERT_FALSE(flush_sizes.empty());
  // The linger flush fired inside the burst (2 samples together), not
  // only at the trailing empty poll.
  EXPECT_EQ(flush_sizes[0], 2u);
  EXPECT_EQ(worker.stats().batched_samples, 2u);
}

TEST_F(WorkerTest, BatchSizeOneMatchesPerSampleBehaviour) {
  std::vector<std::size_t> flush_sizes;
  std::vector<LatencySample> per_sample;
  QueueWorker worker(*nic_, 0, 1024,
                     [&](const LatencySample& s) { per_sample.push_back(s); });
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) { flush_sizes.push_back(samples.size()); },
      /*batch_size=*/1);
  for (int i = 0; i < 3; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(31'000 + i), Timestamp::from_ms(i),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  while (worker.poll_once() != 0) {
  }
  // batch=1: every sample flushes alone, and the per-sample sink still
  // fires alongside the batch sink.
  ASSERT_EQ(flush_sizes.size(), 3u);
  for (const auto n : flush_sizes) EXPECT_EQ(n, 1u);
  EXPECT_EQ(per_sample.size(), 3u);
}

TEST_F(WorkerTest, RunFlushesResidualBatchOnStop) {
  std::atomic<std::uint64_t> samples{0};
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> s) {
        samples.fetch_add(s.size(), std::memory_order_relaxed);
      },
      /*batch_size=*/kMaxLatencyBatch);  // never fills: only the shutdown flush
  std::atomic<bool> stop{false};
  std::thread t([&] { worker.run(stop); });
  for (int i = 0; i < 20; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(32'000 + i), Timestamp::from_ms(i * 10),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  stop.store(true);
  t.join();
  EXPECT_EQ(samples.load(), 20u);  // nothing stranded in the accumulator
}

TEST_F(WorkerTest, FastPathSkipsEstablishedDataSegments) {
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  const Ipv4Address client(10, 1, 0, 1);
  inject_handshake(client, 40'000, Timestamp::from_ms(0), Duration::from_ms(128),
                   Duration::from_ms(5));
  // Established-flow data segments: pure ACKs with payload, both
  // directions. None of them can change tracker state.
  for (int i = 0; i < 10; ++i) {
    inject_data_segment(client, 40'000, server_, 443, 200 + i);
    inject_data_segment(server_, 443, client, 40'000, 600 + i);
  }
  while (worker.poll_once() != 0) {
  }
  // The sample is intact: the handshake itself never takes the fast path.
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].external().ns, Duration::from_ms(128).ns);
  // Synthetic-trace invariant: skips == packets - handshake packets.
  EXPECT_EQ(worker.stats().packets, 23u);
  EXPECT_EQ(worker.stats().fast_path_skips, 20u);
  std::uint64_t classified = 0;
  for (const auto c : worker.stats().parse_status) classified += c;
  EXPECT_EQ(classified, 3u);  // only the handshake hit the full parser
}

TEST_F(WorkerTest, FastPathDisabledParsesEverything) {
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  worker.set_fast_path(false);
  const Ipv4Address client(10, 1, 0, 1);
  inject_handshake(client, 40'000, Timestamp::from_ms(0), Duration::from_ms(128),
                   Duration::from_ms(5));
  for (int i = 0; i < 10; ++i) {
    inject_data_segment(client, 40'000, server_, 443, 200 + i);
  }
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(worker.stats().fast_path_skips, 0u);
  std::uint64_t classified = 0;
  for (const auto c : worker.stats().parse_status) classified += c;
  EXPECT_EQ(classified, worker.stats().packets);
}

TEST_F(WorkerTest, FastPathNeverSkipsSynFinRst) {
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  // All on untracked flows — flag-carrying segments must still reach the
  // full parser (a SYN opens a flow; FIN/RST could tear one down).
  TcpFrameSpec fin;
  fin.src_ip = Ipv4Address(10, 9, 0, 1);
  fin.dst_ip = server_;
  fin.src_port = 50'000;
  fin.dst_port = 443;
  fin.flags = TcpFlags::kFin | TcpFlags::kAck;
  inject_one(*nic_, build_tcp_frame(fin), Timestamp{});
  TcpFrameSpec rst = fin;
  rst.src_port = 50'001;
  rst.flags = TcpFlags::kRst;
  inject_one(*nic_, build_tcp_frame(rst), Timestamp{});
  while (worker.poll_once() != 0) {
  }
  EXPECT_EQ(worker.stats().packets, 2u);
  EXPECT_EQ(worker.stats().fast_path_skips, 0u);
  EXPECT_EQ(worker.stats().parse_status[0], 2u);  // both fully parsed (kOk)
}

TEST_F(WorkerTest, FastPathDoesNotSkipMidHandshakePackets) {
  // A pure ACK on a flow the tracker is mid-handshake on must go through
  // the full parser — it is the packet that completes the measurement.
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  inject_handshake(Ipv4Address(10, 1, 0, 9), 41'000, Timestamp::from_ms(0), Duration::from_ms(80),
                   Duration::from_ms(3));
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(worker.stats().fast_path_skips, 0u);  // nothing skippable in a bare handshake
}

TEST_F(WorkerTest, EmptyPollsAreCounted) {
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  EXPECT_EQ(worker.poll_once(), 0u);
  EXPECT_EQ(worker.stats().empty_polls, 1u);
  EXPECT_EQ(worker.stats().polls, 1u);
}

TEST_F(WorkerTest, PollReturnsEveryMbufExactlyOnce) {
  // 14 handshakes = 42 frames: a full 32-frame burst, then a 10-frame
  // one.  After each poll the pool holds everything not still queued.
  std::size_t delivered = 0;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample&) { ++delivered; });
  for (std::uint16_t i = 0; i < 14; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, 1), static_cast<std::uint16_t>(40'000 + i),
                     Timestamp::from_ms(i), Duration::from_ms(20), Duration::from_ms(1));
  }
  ASSERT_EQ(pool_.available(), pool_.capacity() - 42);
  EXPECT_EQ(worker.poll_once(), 32u);
  EXPECT_EQ(pool_.available(), pool_.capacity() - 10);
  EXPECT_EQ(worker.poll_once(), 10u);
  EXPECT_EQ(pool_.available(), pool_.capacity());
  EXPECT_EQ(worker.poll_once(), 0u);
  EXPECT_EQ(pool_.available(), pool_.capacity());
  EXPECT_EQ(delivered, 14u);
}

}  // namespace
}  // namespace ruru
