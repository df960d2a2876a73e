#pragma once
// SimNic — a multi-queue, poll-mode NIC port (simdpdk analogue of an
// rte_ethdev in RX-only tap mode).
//
// Frames are injected in bursts by a single producer (the traffic
// replay); the NIC stamps an RX timestamp, computes the configured RSS
// hash over the TCP/IP 4-tuple, and enqueues the mbuf on queue
// `hash % nb_queues`.  Worker lcores drain queues with rx_burst(),
// exactly like rte_eth_rx_burst.  Like a real port, the emulation has
// one way in: RSS spreads frames over the queues, so scale-out lives
// behind the rings (workers, bus fan-in lanes, enrichment pool), not in
// the producer.
//
// Drop accounting mirrors hardware: mempool exhaustion and full RX rings
// are counted, never blocked on — a latency tap must not apply
// backpressure to the wire.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "driver/mempool.hpp"
#include "driver/toeplitz.hpp"
#include "util/spsc_ring.hpp"
#include "util/stat_cell.hpp"
#include "util/time.hpp"

namespace ruru {

/// Single-writer cells (the injecting thread): readable live by the
/// metrics snapshot thread without tearing.
struct NicStats {
  StatCell rx_packets = 0;
  StatCell rx_bytes = 0;
  StatCell dropped_no_mbuf = 0;
  StatCell dropped_queue_full = 0;
  StatCell dropped_oversize = 0;
};

inline constexpr auto kNicStatFields = std::to_array<StatField<NicStats>>({
    {"nic.rx_packets", cell_at<&NicStats::rx_packets>},
    {"nic.rx_bytes", cell_at<&NicStats::rx_bytes>},
    {"nic.dropped_no_mbuf", cell_at<&NicStats::dropped_no_mbuf>},
    {"nic.dropped_queue_full", cell_at<&NicStats::dropped_queue_full>},
    {"nic.dropped_oversize", cell_at<&NicStats::dropped_oversize>},
});
static_assert(stat_table_complete(kNicStatFields));

struct NicConfig {
  std::uint16_t num_queues = 4;
  std::size_t queue_depth = 4096;
  RssKey rss_key = symmetric_rss_key();
  std::uint16_t port_id = 0;
  /// Flight-recorder sampling rate: flows whose RSS hash selects under
  /// obs::trace_id_for(hash, trace_sample_n) get a trace id + TSC
  /// ingest stamp on their mbufs.  0 = off (no per-packet cost).
  std::uint32_t trace_sample_n = 0;
};

/// One frame of an RX burst: the wire bytes plus their capture time.
struct RxFrame {
  std::span<const std::uint8_t> data;
  Timestamp rx_time;
};

class SimNic {
 public:
  SimNic(const NicConfig& config, Mempool& pool);

  SimNic(const SimNic&) = delete;
  SimNic& operator=(const SimNic&) = delete;

  /// The RX path, single producer: hash every frame, fill all the
  /// burst's mbufs from ONE Mempool::alloc_bulk, and publish each
  /// destination queue's run with ONE SpscRing::push_burst.  Ring-full
  /// drops go back to the pool with one Mempool::free_bulk.  Drops are
  /// counted, never blocked on: oversize first, then mempool exhaustion
  /// (the burst's tail), then queue full (the tail of a queue's run).
  /// Returns the number of frames queued; when `queued` is non-null it
  /// must have `frames.size()` slots and receives a per-frame success
  /// flag.
  std::size_t inject_burst(std::span<const RxFrame> frames, bool* queued = nullptr);

  /// Poll up to `out.size()` mbufs from `queue` (rte_eth_rx_burst).
  /// Safe to call concurrently across *different* queues.  A poller
  /// hands the burst back with one Mempool::free_bulk when done.
  std::size_t rx_burst(std::uint16_t queue, std::span<MbufPtr> out);

  [[nodiscard]] std::uint16_t num_queues() const { return config_.num_queues; }
  [[nodiscard]] const NicStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_occupancy(std::uint16_t queue) const;
  /// Frames the next inject_burst() is sure to queue: the smaller of the
  /// pool's free mbufs and every ring's free slots.  Only the producer
  /// can shrink it, so a burst capped at room() loses no frame to a full
  /// pool or ring (a lossless replayer waits on it instead of retrying).
  [[nodiscard]] std::size_t room() const;

  /// RSS hash the NIC would assign to this frame (exposed for tests).
  [[nodiscard]] std::uint32_t hash_frame(std::span<const std::uint8_t> frame) const;

 private:
  /// The producer's reusable burst scratch, touched only by its thread;
  /// sized by the largest burst seen, so the steady state never
  /// allocates.
  struct Staging {
    /// A frame that needs an mbuf: its index in the burst, RSS hash and
    /// destination queue.
    struct Kept {
      std::uint32_t frame;
      std::uint32_t hash;
      std::uint32_t queue;
    };
    std::vector<Kept> kept;
    std::vector<MbufPtr> mbufs;             ///< alloc_bulk target, grouped by queue
    std::vector<std::uint32_t> slot_frame;  ///< frame index held by each mbuf slot
    std::vector<std::uint32_t> queue_end;   ///< one past each queue's run in `mbufs`
  };

  NicConfig config_;
  Mempool& pool_;
  ToeplitzTable rss_table_;  ///< derived from config_.rss_key once
  std::vector<std::unique_ptr<SpscRing<MbufPtr>>> queues_;
  NicStats stats_;
  Staging staging_;
};

}  // namespace ruru
