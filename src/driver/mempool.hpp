#pragma once
// Fixed-capacity packet buffer pool (simdpdk analogue of rte_mempool).
//
// All mbuf storage is allocated once up front; the free stack sits
// behind one mutex.  The production path touches that mutex once per
// burst, never once per frame: the NIC fills a whole RX burst with one
// alloc_bulk() (rte_mempool_get_bulk), and a worker hands its whole
// polled burst back with one free_bulk() (rte_pktmbuf_free_bulk).  The
// per-frame alloc() and the MbufDeleter release exist for tests and
// one-off buffers.  Exhaustion is an expected condition (alloc returns
// null, alloc_bulk fills fewer slots) that the NIC counts as an rx
// drop, matching DPDK semantics when a pool runs dry.
//
// The lock guards pointers only: alloc resets each descriptor after it
// unlocks, so a worker's free_bulk never waits behind descriptor cache
// misses.  The dataroom is allocated but never written here, so only the
// pages of buffers actually used become resident.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "driver/mbuf.hpp"

namespace ruru {

class Mempool {
 public:
  /// `count` buffers of `buf_size` usable bytes each.
  Mempool(std::size_t count, std::size_t buf_size = 2048);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;
  ~Mempool();

  /// Null when the pool is exhausted.
  [[nodiscard]] MbufPtr alloc();

  /// Bulk alloc: fills up to `out.size()` slots under ONE lock
  /// acquisition and returns the number filled, always a prefix of
  /// `out`.  Each slot left empty counts one alloc failure, so callers
  /// ask for exactly the buffers they will use.
  std::size_t alloc_bulk(std::span<MbufPtr> out);

  /// Bulk free: returns every non-null mbuf in `mbufs` to its owning
  /// pool and leaves the slots null.  Each pool's lock is taken once per
  /// run of consecutive same-pool mbufs (nulls do not break a run), so a
  /// burst from one pool costs one lock acquisition.
  static void free_bulk(std::span<MbufPtr> mbufs);

  [[nodiscard]] std::size_t capacity() const { return count_; }
  /// Usable bytes per buffer: larger frames can never be assigned.
  [[nodiscard]] std::size_t buf_size() const { return buf_size_; }
  [[nodiscard]] std::size_t available() const;
  [[nodiscard]] std::uint64_t alloc_failures() const;

 private:
  friend struct MbufDeleter;
  void release(Mbuf* m);
  /// Per-packet descriptor state back to a fresh buffer's; called by
  /// the allocating thread once it owns `m`, outside the lock.
  static void reset(Mbuf& m);

  const std::size_t count_;
  const std::size_t buf_size_;
  std::unique_ptr<std::uint8_t[]> storage_;     // contiguous dataroom, uninitialized
  std::vector<Mbuf> mbufs_;                     // descriptor array
  std::vector<Mbuf*> free_list_;
  mutable std::mutex mu_;
  std::uint64_t alloc_failures_ = 0;
};

}  // namespace ruru
