#pragma once
// Packet buffer (mbuf) — the simdpdk analogue of rte_mbuf.
//
// Fixed-size buffers owned by a Mempool; RX metadata (timestamp, RSS
// hash, queue) rides alongside the bytes exactly as DPDK offloads would
// provide it.  Ownership is expressed with a unique_ptr whose deleter
// returns the buffer to its pool — buffers are never heap-allocated on
// the data path.
//
// Only the first length() bytes of the dataroom are defined: the pool
// never initializes the dataroom and a recycled buffer keeps an older
// frame's tail, so nothing may read past length().

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "util/time.hpp"

namespace ruru {

class Mempool;

class Mbuf {
 public:
  /// Usable bytes in the buffer (default mirrors a 2KB DPDK dataroom).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t length() const { return length_; }

  [[nodiscard]] std::uint8_t* data() { return storage_; }
  [[nodiscard]] const std::uint8_t* data() const { return storage_; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return {storage_, length_}; }

  /// Copies `frame` into the buffer. Returns false when it does not fit
  /// (caller counts an oversize drop).
  bool assign(std::span<const std::uint8_t> frame) {
    if (frame.size() > capacity_) return false;
    std::memcpy(storage_, frame.data(), frame.size());
    length_ = frame.size();
    return true;
  }

  // --- RX descriptor metadata (filled by the NIC) ---
  Timestamp timestamp{};     ///< hardware-style RX timestamp
  std::uint32_t rss_hash = 0;
  std::uint16_t queue_id = 0;
  std::uint16_t port_id = 0;
  /// Flight-recorder sampling: non-zero when this packet's flow is
  /// 1-in-N traced (obs::trace_id_for of the RSS hash).  The pool zeroes
  /// both fields on every alloc, so a recycled mbuf never carries a
  /// stale id; the NIC writes trace_id while sampling is enabled and
  /// stamps ingest_ns only for selected packets.
  std::uint32_t trace_id = 0;
  std::int64_t ingest_ns = 0;  ///< TSC-clock stamp at NIC ingest (traced only)

 private:
  friend class Mempool;
  Mbuf(std::uint8_t* storage, std::size_t capacity) : storage_(storage), capacity_(capacity) {}

  std::uint8_t* storage_;
  std::size_t capacity_;
  std::size_t length_ = 0;
  Mempool* pool_ = nullptr;

  friend struct MbufDeleter;
};
static_assert(sizeof(Mbuf) == 64, "the descriptor is one cache line's worth of bytes");

struct MbufDeleter {
  void operator()(Mbuf* m) const;
};

/// Owning handle; destruction returns the buffer to its mempool.
using MbufPtr = std::unique_ptr<Mbuf, MbufDeleter>;

}  // namespace ruru
