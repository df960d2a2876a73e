#include "driver/mempool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/spsc_ring.hpp"

namespace ruru {
namespace {

TEST(Mempool, AllocUntilExhaustion) {
  Mempool pool(4, 256);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.available(), 4u);
  std::vector<MbufPtr> held;
  for (int i = 0; i < 4; ++i) {
    auto m = pool.alloc();
    ASSERT_NE(m, nullptr);
    held.push_back(std::move(m));
  }
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.alloc_failures(), 1u);
}

TEST(Mempool, ReleaseReturnsBuffer) {
  Mempool pool(1, 256);
  {
    auto m = pool.alloc();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(pool.available(), 0u);
  }  // m destructs -> returns to pool
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_NE(pool.alloc(), nullptr);
}

TEST(Mempool, AssignCopiesAndBoundsChecks) {
  Mempool pool(1, 64);
  auto m = pool.alloc();
  std::vector<std::uint8_t> data(60, 0xAB);
  EXPECT_TRUE(m->assign(data));
  EXPECT_EQ(m->length(), 60u);
  EXPECT_EQ(std::memcmp(m->data(), data.data(), 60), 0);

  std::vector<std::uint8_t> oversize(65, 1);
  EXPECT_FALSE(m->assign(oversize));
  EXPECT_EQ(m->length(), 60u);  // unchanged on failure
}

TEST(Mempool, ReallocResetsMetadata) {
  Mempool pool(1, 64);
  {
    auto m = pool.alloc();
    m->timestamp = Timestamp::from_sec(5);
    m->rss_hash = 0x1234;
    m->queue_id = 3;
    m->port_id = 2;
    m->trace_id = 0x1234;
    m->ingest_ns = 99;
    std::vector<std::uint8_t> data(10, 1);
    m->assign(data);
  }
  const auto expect_fresh = [](const Mbuf& m) {
    EXPECT_EQ(m.timestamp.ns, 0);
    EXPECT_EQ(m.rss_hash, 0u);
    EXPECT_EQ(m.queue_id, 0);
    EXPECT_EQ(m.port_id, 0);
    EXPECT_EQ(m.trace_id, 0u);
    EXPECT_EQ(m.ingest_ns, 0);
    EXPECT_EQ(m.length(), 0u);
  };
  {
    auto m2 = pool.alloc();
    ASSERT_NE(m2, nullptr);
    expect_fresh(*m2);
    m2->rss_hash = 0x5678;
    m2->trace_id = 7;
  }
  // The same buffer again, through the bulk path.
  std::array<MbufPtr, 1> bulk;
  ASSERT_EQ(pool.alloc_bulk(bulk), 1u);
  expect_fresh(*bulk[0]);
}

/// This process's resident set in KiB, from /proc/self/status.
std::size_t vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST(Mempool, DataroomIsNotMadeResidentUpFront) {
  // The default pool shape: 64 Ki buffers of 2 KiB, a 128 MiB dataroom.
  // Only the descriptors (4 MiB) and the free stack are written at
  // construction; the dataroom's pages stay untouched until used.
  constexpr std::size_t kDataroomKib = (std::size_t{1} << 16) * 2048 / 1024;
  const std::size_t before = vm_rss_kib();
  ASSERT_GT(before, 0u);
  Mempool pool(1 << 16, 2048);
  const std::size_t after = vm_rss_kib();
  EXPECT_LT(after - std::min(before, after), kDataroomKib / 4)
      << "VmRSS grew from " << before << " KiB to " << after << " KiB";
}

TEST(Mempool, BuffersAreDistinct) {
  Mempool pool(8, 128);
  std::vector<MbufPtr> bufs;
  for (int i = 0; i < 8; ++i) bufs.push_back(pool.alloc());
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      EXPECT_NE(bufs[static_cast<std::size_t>(i)]->data(),
                bufs[static_cast<std::size_t>(j)]->data());
    }
  }
}

TEST(Mempool, ConcurrentAllocFreeKeepsAccounting) {
  Mempool pool(64, 64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 20'000; ++i) {
        auto m = pool.alloc();
        if (m) {
          std::uint8_t byte = static_cast<std::uint8_t>(i);
          m->assign(std::span<const std::uint8_t>(&byte, 1));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.available(), 64u);
}

TEST(Mempool, FreeBulkSkipsNulls) {
  Mempool pool(8, 64);
  std::array<MbufPtr, 6> burst;
  burst[0] = pool.alloc();
  burst[2] = pool.alloc();
  burst[5] = pool.alloc();
  ASSERT_EQ(pool.available(), 5u);
  Mempool::free_bulk(burst);
  EXPECT_EQ(pool.available(), 8u);
  for (const MbufPtr& m : burst) EXPECT_EQ(m, nullptr);
  Mempool::free_bulk(burst);  // all null now: a no-op
  EXPECT_EQ(pool.available(), 8u);
}

TEST(Mempool, FreeBulkReturnsEachMbufToItsOwnPool) {
  Mempool a(8, 64);
  Mempool b(8, 128);
  std::vector<MbufPtr> mixed;
  for (int i = 0; i < 5; ++i) {
    mixed.push_back(a.alloc());
    mixed.push_back(b.alloc());
    if (i % 2 == 0) mixed.push_back(b.alloc());  // runs of length 1 and 2
  }
  ASSERT_EQ(a.available(), 3u);
  ASSERT_EQ(b.available(), 0u);
  Mempool::free_bulk(mixed);
  EXPECT_EQ(a.available(), 8u);
  EXPECT_EQ(b.available(), 8u);
  // Every buffer came back to the pool that owns its dataroom.
  std::vector<MbufPtr> again(8);
  ASSERT_EQ(b.alloc_bulk(again), 8u);
  for (const MbufPtr& m : again) EXPECT_EQ(m->capacity(), 128u);
}

TEST(Mempool, FreeBulkRestoresAvailableExactly) {
  Mempool pool(64, 64);
  std::vector<MbufPtr> burst(40);
  ASSERT_EQ(pool.alloc_bulk(burst), 40u);
  EXPECT_EQ(pool.available(), 24u);
  Mempool::free_bulk(std::span<MbufPtr>(burst).first(15));
  EXPECT_EQ(pool.available(), 39u);
  Mempool::free_bulk(burst);
  EXPECT_EQ(pool.available(), 64u);
  EXPECT_EQ(pool.alloc_failures(), 0u);
}

TEST(Mempool, AllocBulkCountsOneFailurePerEmptySlot) {
  Mempool pool(4, 64);
  std::vector<MbufPtr> burst(7);
  EXPECT_EQ(pool.alloc_bulk(burst), 4u);
  EXPECT_EQ(pool.alloc_failures(), 3u);
  EXPECT_EQ(pool.alloc_bulk(std::span<MbufPtr>()), 0u);  // asks for nothing, fails nothing
  EXPECT_EQ(pool.alloc_failures(), 3u);
}

TEST(Mempool, ConcurrentAllocBulkAndFreeBulkKeepAccounting) {
  // One producer fills bursts with alloc_bulk and hands them to two
  // consumers, which return them with free_bulk — the NIC/worker shape.
  constexpr int kRounds = 20'000;
  constexpr std::size_t kBurstSize = 8;
  Mempool pool(64, 64);
  std::array<SpscRing<MbufPtr>, 2> rings{SpscRing<MbufPtr>(32), SpscRing<MbufPtr>(32)};
  std::atomic<bool> done{false};

  std::thread producer([&] {
    std::array<MbufPtr, kBurstSize> burst;
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t got = pool.alloc_bulk(burst);
      const auto byte = static_cast<std::uint8_t>(r);
      for (std::size_t i = 0; i < got; ++i) burst[i]->assign({&byte, 1});
      SpscRing<MbufPtr>& ring = rings[static_cast<std::size_t>(r) % 2];
      const std::size_t pushed = ring.push_burst(burst.data(), got);
      Mempool::free_bulk(std::span<MbufPtr>(burst).subspan(pushed, got - pushed));
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> consumers;
  for (SpscRing<MbufPtr>& ring : rings) {
    consumers.emplace_back([&ring, &done] {
      std::array<MbufPtr, kBurstSize> burst;
      for (;;) {
        const bool last = done.load(std::memory_order_acquire);
        const std::size_t n = ring.pop_burst(burst.data(), burst.size());
        Mempool::free_bulk(std::span<MbufPtr>(burst).first(n));
        if (n == 0 && last) break;
      }
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(Mempool, ConcurrentAllocBulkHandsOutFreshDescriptors) {
  // Three threads share a pool smaller than their bursts combined: each
  // allocates a burst, checks every descriptor came back reset, scribbles
  // on it and frees it.  The reset runs after the lock is released, so
  // it must only ever touch buffers the allocating thread owns; TSan
  // reports it otherwise.  Every slot asked for is a success or exactly
  // one alloc failure.
  constexpr int kThreads = 3;
  constexpr int kRounds = 10'000;
  constexpr std::size_t kBurstSize = 8;
  Mempool pool(16, 64);
  std::atomic<std::uint64_t> handed_out{0};
  std::atomic<std::uint64_t> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &handed_out, &stale, t] {
      std::array<MbufPtr, kBurstSize> burst;
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t got = pool.alloc_bulk(burst);
        for (std::size_t i = 0; i < got; ++i) {
          Mbuf& m = *burst[i];
          if (m.length() != 0 || m.timestamp.ns != 0 || m.rss_hash != 0 || m.queue_id != 0 ||
              m.port_id != 0 || m.trace_id != 0 || m.ingest_ns != 0) {
            stale.fetch_add(1, std::memory_order_relaxed);
          }
          const auto byte = static_cast<std::uint8_t>(r);
          m.assign({&byte, 1});
          m.timestamp = Timestamp::from_ns(r + 1);
          m.rss_hash = static_cast<std::uint32_t>(t + 1);
          m.queue_id = static_cast<std::uint16_t>(t + 1);
          m.port_id = 1;
          m.trace_id = 1;
          m.ingest_ns = r + 1;
        }
        handed_out.fetch_add(got, std::memory_order_relaxed);
        Mempool::free_bulk(std::span<MbufPtr>(burst).first(got));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_EQ(pool.available(), pool.capacity());
  EXPECT_EQ(handed_out.load() + pool.alloc_failures(),
            std::uint64_t{kThreads} * kRounds * kBurstSize);
}

}  // namespace
}  // namespace ruru
