#pragma once
// Reference worker: a one-probe-per-packet poll loop, the oracle that
// QueueWorker's staged lane pipeline is fuzzed against
// (worker_vector_test.cpp).
//
// It is built only from public APIs — SimNic, HandshakeTracker and the
// packet parsers — and handles each frame to completion before it looks
// at the next, so it has no provisional verdicts to void and no staged
// items to flush.  It makes the same fast-path decisions (pre-parse
// probe, then skip / in-flow kernel / full parse per the flow table),
// keeps its own WorkerStats, and runs the same per-burst staleness
// sweep, so samples and every counter except the lane_* cells (which
// describe the lane pipeline) must match QueueWorker bit for bit.

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "driver/nic.hpp"
#include "flow/handshake_tracker.hpp"
#include "flow/worker.hpp"
#include "net/packet_view.hpp"

namespace ruru {

class ReferenceWorker {
 public:
  using SampleSink = std::function<void(const LatencySample&)>;

  ReferenceWorker(SimNic& nic, std::uint16_t queue_id, std::size_t flow_table_capacity,
                  SampleSink sink, Duration stale_after, std::size_t probe_window,
                  InflowConfig inflow)
      : nic_(nic),
        queue_id_(queue_id),
        tracker_(flow_table_capacity, stale_after, probe_window, ProbeKernel::kAuto, inflow),
        sink_(std::move(sink)) {}

  /// One rx_burst of up to QueueWorker::kBurst frames, each handled in
  /// arrival order, then the staleness sweep QueueWorker runs per burst.
  /// Returns frames handled (0 == empty poll).
  std::size_t poll_once() {
    std::array<MbufPtr, QueueWorker::kBurst> burst;
    const std::size_t n = nic_.rx_burst(queue_id_, burst);
    ++stats_.polls;
    if (n == 0) {
      ++stats_.empty_polls;
      return 0;
    }
    for (std::size_t i = 0; i < n; ++i) handle(*burst[i]);
    tracker_.sweep(burst[n - 1]->timestamp, QueueWorker::kSweepGroupsPerBurst);
    return n;
  }

  [[nodiscard]] const WorkerStats& stats() const { return stats_; }
  [[nodiscard]] const TrackerStats& tracker_stats() const { return tracker_.stats(); }
  [[nodiscard]] const HandshakeTracker& tracker() const { return tracker_; }

 private:
  void handle(const Mbuf& m) {
    ++stats_.packets;
    stats_.bytes += m.length();
    // A pure data segment (ACK set, no SYN/FIN/RST) can only matter to a
    // flow the table already holds: untracked ones are skipped without a
    // full parse, established ones go to the in-flow kernel.
    const FastProbe probe = probe_tcp_fast(m.bytes());
    constexpr std::uint8_t kSlowFlags = TcpFlags::kSyn | TcpFlags::kFin | TcpFlags::kRst;
    if (probe.eligible && (probe.tcp_flags & kSlowFlags) == 0 &&
        (probe.tcp_flags & TcpFlags::kAck) != 0) {
      const FlowKey key = FlowKey::from(probe.tuple);
      if (tracker_.inflow_enabled()) {
        const auto look = tracker_.inflow_lookup(key, m.rss_hash, m.timestamp);
        if (look.verdict == HandshakeTracker::InflowVerdict::kUntracked) {
          ++stats_.fast_path_skips;
          return;
        }
        if (look.verdict == HandshakeTracker::InflowVerdict::kEstablished) {
          const FastTsProbe tsp = probe_tcp_timestamps(m.bytes(), probe.l4_offset, probe.is_v4);
          if (tsp.valid) {
            tracker_.inflow_established(look.slot, key.forward, tsp, m.timestamp, m.rss_hash,
                                        queue_id_, samples_);
            ++stats_.inflow_consumed;
            deliver();
            return;
          }
          // Inconsistent length fields: let parse_packet() classify it.
        }
      } else if (!tracker_.tracking(key, m.rss_hash, m.timestamp)) {
        ++stats_.fast_path_skips;
        return;
      }
    }
    PacketView view;
    const ParseStatus status = parse_packet(m.bytes(), view);
    ++stats_.parse_status[static_cast<std::size_t>(status)];
    if (status != ParseStatus::kOk) return;
    tracker_.process(view, m.timestamp, m.rss_hash, queue_id_, samples_);
    deliver();
  }

  void deliver() {
    for (const LatencySample& s : samples_) sink_(s);
    samples_.clear();
  }

  SimNic& nic_;
  std::uint16_t queue_id_;
  HandshakeTracker tracker_;
  SampleSink sink_;
  std::vector<LatencySample> samples_;
  WorkerStats stats_;
};

}  // namespace ruru
