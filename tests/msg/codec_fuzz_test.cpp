// Seeded mutation driver for the latency payload decoder (v1 single
// sample and v2 batch): byte flips, truncation at every offset, random
// growth and extreme values in the v2 count field.  Every mutant must be
// rejected with `out` untouched, or decode to samples that re-encode to
// bytes which decode back to the same samples.

#include <gtest/gtest.h>

#include <vector>

#include "msg/codec.hpp"
#include "mutation.hpp"

namespace ruru {
namespace {

using mutation::Bytes;

bool same(const LatencySample& a, const LatencySample& b) {
  return a.client == b.client && a.server == b.server && a.client_port == b.client_port &&
         a.server_port == b.server_port && a.syn_time == b.syn_time &&
         a.synack_time == b.synack_time && a.ack_time == b.ack_time &&
         a.rss_hash == b.rss_hash && a.queue_id == b.queue_id && a.kind == b.kind &&
         a.toward_client == b.toward_client;
}

bool same(const std::vector<LatencySample>& a, const std::vector<LatencySample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

Bytes payload_of(const Message& m) {
  const auto b = m.frames[1].bytes();
  return {b.begin(), b.end()};
}

/// Re-encodes `samples` in the version `version` names.
Bytes reencode(std::uint8_t version, const std::vector<LatencySample>& samples) {
  return payload_of(version == 2 ? encode_latency_batch(samples)
                                 : encode_latency_sample(samples.front()));
}

void check(const Bytes& bytes) {
  // A sentinel already in `out` shows whether a reject left it alone.
  LatencySample sentinel;
  sentinel.queue_id = 0xBEEF;
  std::vector<LatencySample> out = {sentinel};
  if (!decode_latency_payload(Frame::adopt(bytes), out)) {
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(same(out[0], sentinel));
    return;
  }
  ASSERT_GE(out.size(), 1u);
  EXPECT_TRUE(same(out[0], sentinel));
  const std::vector<LatencySample> decoded(out.begin() + 1, out.end());
  if (bytes[0] != 2) ASSERT_EQ(decoded.size(), 1u);

  const Bytes again = reencode(bytes[0], decoded);
  std::vector<LatencySample> redecoded;
  ASSERT_TRUE(decode_latency_payload(Frame::adopt(again), redecoded));
  EXPECT_TRUE(same(decoded, redecoded));
  EXPECT_EQ(reencode(bytes[0], redecoded), again);
}

std::vector<LatencySample> samples() {
  std::vector<LatencySample> out;
  LatencySample s;
  s.client = Ipv4Address(10, 1, 0, 7);
  s.server = Ipv4Address(10, 2, 3, 4);
  s.client_port = 40'123;
  s.server_port = 443;
  s.syn_time = Timestamp::from_ns(1'000'000'123);
  s.synack_time = Timestamp::from_ns(1'128'000'456);
  s.ack_time = Timestamp::from_ns(1'133'000'789);
  s.rss_hash = 0xDEADBEEF;
  s.queue_id = 3;
  out.push_back(s);
  s.client = Ipv6Address::parse("2001:db8::1").value();
  s.server = Ipv6Address::parse("2001:db8:ffff::2").value();
  s.kind = SampleKind::kInflow;
  s.toward_client = true;
  out.push_back(s);
  s.kind = SampleKind::kOneSided;
  s.toward_client = false;
  s.syn_time = Timestamp{-1};
  out.push_back(s);
  return out;
}

/// v1 payloads of every seed sample, a three-record v2 batch and an
/// empty one.
std::vector<Bytes> seeds() {
  std::vector<Bytes> out;
  const std::vector<LatencySample> all = samples();
  for (const LatencySample& s : all) out.push_back(payload_of(encode_latency_sample(s)));
  out.push_back(payload_of(encode_latency_batch(all)));
  out.push_back(payload_of(encode_latency_batch({})));
  return out;
}

TEST(LatencyCodecFuzz, SeedsRoundTrip) {
  for (const Bytes& seed : seeds()) {
    std::vector<LatencySample> out;
    ASSERT_TRUE(decode_latency_payload(Frame::adopt(seed), out));
    check(seed);
  }
}

TEST(LatencyCodecFuzz, TruncationAtEveryOffset) {
  for (const Bytes& seed : seeds()) {
    for (std::size_t n = 0; n < seed.size(); ++n) check(Bytes(seed.begin(), seed.begin() + n));
  }
}

TEST(LatencyCodecFuzz, ByteFlips) {
  Pcg32 rng(0xC0DE1);
  const std::vector<Bytes> all = seeds();
  for (int i = 0; i < 20'000; ++i) check(mutation::flip_bytes(all[i % all.size()], rng));
}

TEST(LatencyCodecFuzz, RandomGrowth) {
  Pcg32 rng(0xC0DE2);
  for (const Bytes& seed : seeds()) {
    for (std::size_t extra = 1; extra <= 140; ++extra) {
      check(mutation::resized(seed, seed.size() + extra, rng));
    }
  }
}

TEST(LatencyCodecFuzz, ExtremeBatchCounts) {
  Pcg32 rng(0xC0DE3);
  const Bytes batch = payload_of(encode_latency_batch(samples()));
  std::vector<std::uint64_t> counts = mutation::extreme_lengths(2, 3);
  counts.insert(counts.end(), {kMaxLatencyBatch, kMaxLatencyBatch + 1});
  for (const std::uint64_t count : counts) {
    const Bytes mutant = mutation::with_be(batch, 1, 2, count);
    check(mutant);
    // The count field lying about a payload grown or cut to match it.
    for (const std::size_t records : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
      check(mutation::resized(mutant, 3 + records * (batch.size() - 3) / 3, rng));
    }
  }
}

TEST(LatencyCodecFuzz, StackedMutations) {
  Pcg32 rng(0xC0DE4);
  const std::vector<Bytes> all = seeds();
  for (int i = 0; i < 10'000; ++i) {
    Bytes bytes = all[rng.bounded(static_cast<std::uint32_t>(all.size()))];
    for (std::uint32_t m = 1 + rng.bounded(3); m > 0 && !bytes.empty(); --m) {
      switch (rng.bounded(3)) {
        case 0: bytes = mutation::flip_bytes(bytes, rng); break;
        case 1: bytes = mutation::with_be(bytes, 0, 1, 1 + rng.bounded(2)); break;
        default: {
          const std::uint32_t n = rng.bounded(static_cast<std::uint32_t>(bytes.size() + 80));
          bytes = mutation::resized(bytes, n, rng);
          break;
        }
      }
    }
    check(bytes);
  }
}

}  // namespace
}  // namespace ruru
