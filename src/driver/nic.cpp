#include "driver/nic.hpp"

#include <algorithm>
#include <utility>

#include "net/packet_view.hpp"
#include "obs/trace.hpp"
#include "obs/tsc_clock.hpp"
#include "util/byte_order.hpp"
#include "util/logging.hpp"

namespace ruru {

namespace {

// How many frames ahead the classify loop prefetches a frame's header.
// Replayed frames arrive cold, and hashing stalls on each one's first
// line; eight frames of hashing cover the miss.
constexpr std::size_t kHeaderPrefetchAhead = 8;

// Flight-recorder stamping at the RX descriptor, the analogue of a
// NIC writing a flow-director mark.  The pool hands out descriptors
// with trace_id zeroed; while sampling is on, trace_id is written on
// every packet and the TSC read happens only for the 1-in-N selected
// packets.  Cost with sampling off: one predictable branch.
inline void stamp_trace(Mbuf& m, std::uint32_t hash, std::uint32_t sample_n) {
  if constexpr (!obs::kTraceCompiled) {
    (void)m;
    (void)hash;
    (void)sample_n;
    return;
  } else {
    if (sample_n == 0) return;
    m.trace_id = obs::trace_id_for(hash, sample_n);
    if (m.trace_id != 0) m.ingest_ns = obs::trace_now_ns();
  }
}

}  // namespace

SimNic::SimNic(const NicConfig& config, Mempool& pool)
    : config_(config), pool_(pool), rss_table_(config.rss_key) {
  queues_.reserve(config_.num_queues);
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    queues_.push_back(std::make_unique<SpscRing<MbufPtr>>(config_.queue_depth));
  }
}

std::uint32_t SimNic::hash_frame(std::span<const std::uint8_t> frame) const {
  // Fast fixed-offset extraction, the way NIC RSS engines parse: only
  // plain TCP/IPv4 and TCP/IPv6 get 4-tuple hashes; everything else
  // hashes to 0 (queue 0), which is what many NICs do for non-IP.
  if (frame.size() < 14) return 0;
  const std::uint16_t ether_type = load_be16(&frame[12]);
  if (ether_type == kEtherTypeIpv4) {
    if (frame.size() < 14 + 20) return 0;
    const std::uint8_t ihl = frame[14] & 0x0f;
    // A header shorter than 20 bytes is malformed; hashing "ports" read
    // from inside the IP header would spray garbage across queues.
    if (ihl < 5) return 0;
    const std::size_t l4 = 14 + std::size_t{ihl} * 4;
    if (frame[14 + 9] != kIpProtoTcp || frame.size() < l4 + 4) return 0;
    const Ipv4Address src(load_be32(&frame[14 + 12]));
    const Ipv4Address dst(load_be32(&frame[14 + 16]));
    const std::uint16_t sp = load_be16(&frame[l4]);
    const std::uint16_t dp = load_be16(&frame[l4 + 2]);
    return rss_table_.hash_tcp4(src, dst, sp, dp);
  }
  if (ether_type == kEtherTypeIpv6) {
    if (frame.size() < 14 + 40 + 4) return 0;
    if (frame[14 + 6] != kIpProtoTcp) return 0;
    std::array<std::uint8_t, 16> s{};
    std::array<std::uint8_t, 16> d{};
    std::copy_n(&frame[14 + 8], 16, s.begin());
    std::copy_n(&frame[14 + 24], 16, d.begin());
    const std::size_t l4 = 14 + 40;
    return rss_table_.hash_tcp6(Ipv6Address(s), Ipv6Address(d), load_be16(&frame[l4]),
                                load_be16(&frame[l4 + 2]));
  }
  return 0;
}

std::size_t SimNic::inject_burst(std::span<const RxFrame> frames, bool* queued) {
  Staging& s = staging_;
  const std::uint32_t nq = config_.num_queues;
  // Classify: hash every frame and keep the ones that need an mbuf.
  s.kept.clear();
  bool one_queue = true;  // every kept frame bound for the same queue
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    if (i + kHeaderPrefetchAhead < frames.size()) {
      __builtin_prefetch(frames[i + kHeaderPrefetchAhead].data.data(), 0 /*read*/, 3);
    }
    if (queued != nullptr) queued[i] = false;
    const std::uint32_t hash = hash_frame(frames[i].data);
    const std::uint32_t queue = hash % nq;
    if (frames[i].data.size() > pool_.buf_size()) {
      ++stats_.dropped_oversize;
      continue;
    }
    if (!s.kept.empty()) one_queue &= queue == s.kept.front().queue;
    s.kept.push_back({i, hash, queue});
  }

  // One mempool lock for the burst, sized to the kept frames: every kept
  // frame left without a buffer is exactly one alloc failure.
  s.mbufs.resize(s.kept.size());
  const std::size_t got = pool_.alloc_bulk(s.mbufs);
  if (got < s.kept.size()) {
    stats_.dropped_no_mbuf += s.kept.size() - got;
    RURU_LOG_EVERY_N(kWarn, "driver", 65536)
        << "mempool exhausted, dropping frames (total " << stats_.dropped_no_mbuf << ")";
  }
  if (got == 0) return 0;

  // Fill the buffers grouped by destination queue (a stable counting
  // sort), so queue q's run is contiguous and in arrival order.
  // queue_end[q] starts as the run's first slot and ends one past its
  // last; only the entries of non-empty queues are ever read.
  s.queue_end.resize(nq);
  if (one_queue) {
    // Already grouped (one frame, or a burst of one flow): the sort is
    // the identity.
    s.queue_end[s.kept.front().queue] = 0;
  } else {
    std::fill(s.queue_end.begin(), s.queue_end.end(), 0);
    for (std::size_t j = 0; j < got; ++j) ++s.queue_end[s.kept[j].queue];
    for (std::uint32_t q = 0, start = 0; q < nq; ++q) {
      start += std::exchange(s.queue_end[q], start);
    }
  }
  s.slot_frame.resize(got);
  for (std::size_t j = 0; j < got; ++j) {
    const Staging::Kept k = s.kept[j];
    const std::uint32_t slot = s.queue_end[k.queue]++;
    Mbuf& m = *s.mbufs[slot];
    m.assign(frames[k.frame].data);  // fits: oversize frames were dropped above
    m.timestamp = frames[k.frame].rx_time;
    m.rss_hash = k.hash;
    m.port_id = config_.port_id;
    m.queue_id = static_cast<std::uint16_t>(k.queue);
    stamp_trace(m, k.hash, config_.trace_sample_n);
    s.slot_frame[slot] = k.frame;
  }

  // Publish: one push_burst (one release store) per run, walking the
  // runs rather than the queues.  A full ring refuses the tail of its
  // run, never reorders it.
  std::size_t total = 0;
  std::uint64_t bytes = 0;
  for (std::uint32_t begin = 0, end = 0; begin < got; begin = end) {
    const std::uint16_t q = s.mbufs[begin]->queue_id;
    end = s.queue_end[q];
    const std::uint32_t run = end - begin;
    const std::size_t pushed = queues_[q]->push_burst(&s.mbufs[begin], run);
    for (std::uint32_t slot = begin; slot < begin + pushed; ++slot) {
      bytes += frames[s.slot_frame[slot]].data.size();
      if (queued != nullptr) queued[s.slot_frame[slot]] = true;
    }
    stats_.dropped_queue_full += run - pushed;
    total += pushed;
  }
  stats_.rx_packets += total;
  stats_.rx_bytes += bytes;
  // push_burst moved the queued mbufs out; what is left are ring-full
  // drops, returned under one lock.
  if (total < got) Mempool::free_bulk(std::span<MbufPtr>(s.mbufs).first(got));
  return total;
}

std::size_t SimNic::rx_burst(std::uint16_t queue, std::span<MbufPtr> out) {
  return queues_[queue]->pop_burst(out.data(), out.size());
}

std::size_t SimNic::queue_occupancy(std::uint16_t queue) const {
  return queues_[queue]->size();
}

std::size_t SimNic::room() const {
  std::size_t room = pool_.available();
  for (const auto& q : queues_) room = std::min(room, q->capacity() - q->size());
  return room;
}

}  // namespace ruru
