// Seeded mutation driver for ws_decode_frame: byte flips, truncation at
// every offset and extreme values in the 7-, 16- and 64-bit length
// fields, on masked and unmasked frames of every length form.  Every
// mutant must be rejected, or decode to a frame inside the buffer whose
// opcode and payload re-encode (masked or not) and decode to themselves.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "mutation.hpp"
#include "viz/websocket.hpp"

namespace ruru {
namespace {

using mutation::Bytes;

constexpr std::array<std::uint8_t, 4> kMask = {0x12, 0x34, 0x56, 0x78};

void check(const Bytes& bytes) {
  const auto frame = ws_decode_frame(bytes);
  if (!frame) return;
  ASSERT_LE(frame->wire_size, bytes.size());
  ASSERT_GE(frame->wire_size, frame->payload.size() + 2);

  const Bytes plain = ws_encode_frame(frame->opcode, frame->payload);
  const auto again = ws_decode_frame(plain);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->opcode, frame->opcode);
  EXPECT_EQ(again->payload, frame->payload);
  EXPECT_EQ(again->wire_size, plain.size());
  EXPECT_EQ(ws_encode_frame(again->opcode, again->payload), plain);

  const auto unmasked =
      ws_decode_frame(ws_encode_frame_masked(frame->opcode, frame->payload, kMask));
  ASSERT_TRUE(unmasked.has_value());
  EXPECT_EQ(unmasked->opcode, frame->opcode);
  EXPECT_EQ(unmasked->payload, frame->payload);
}

Bytes payload(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return out;
}

/// Every length form (7-, 16- and 64-bit), masked and unmasked.
std::vector<Bytes> seeds() {
  return {ws_encode_text("hello"),
          ws_encode_frame_masked(WsOpcode::kText, payload(15), kMask),
          ws_encode_frame(WsOpcode::kBinary, payload(300)),
          ws_encode_frame_masked(WsOpcode::kBinary, payload(200), kMask),
          ws_encode_frame(WsOpcode::kPing, {}),
          ws_encode_frame(WsOpcode::kBinary, payload(65'536))};
}

TEST(WsFrameFuzz, SeedsRoundTrip) {
  for (const Bytes& seed : seeds()) {
    ASSERT_TRUE(ws_decode_frame(seed).has_value());
    check(seed);
  }
}

TEST(WsFrameFuzz, TruncationAtEveryOffset) {
  for (const Bytes& seed : seeds()) {
    for (std::size_t n = 0; n < seed.size(); ++n) {
      const Bytes cut(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_FALSE(ws_decode_frame(cut).has_value()) << "cut at " << n;
    }
  }
}

TEST(WsFrameFuzz, ByteFlips) {
  Pcg32 rng(0x3EB1);
  const std::vector<Bytes> all = seeds();
  for (int i = 0; i < 12'000; ++i) check(mutation::flip_bytes(all[i % all.size()], rng));
}

TEST(WsFrameFuzz, ExtremeLengthFields) {
  Pcg32 rng(0x3EB2);
  for (const Bytes& seed : seeds()) {
    const std::uint8_t form = seed[1] & 0x7f;
    const bool masked = (seed[1] & 0x80) != 0;
    const std::size_t header = (form == 127 ? 10 : form == 126 ? 4 : 2) + (masked ? 4 : 0);
    const std::uint64_t actual = seed.size() - header;
    // Every 7-bit length, including the 126/127 markers over bytes that
    // were payload or mask.
    for (std::uint8_t len = 0; len < 128; ++len) {
      Bytes mutant = seed;
      mutant[1] = static_cast<std::uint8_t>((seed[1] & 0x80) | len);
      check(mutant);
    }
    if (form == 126 || form == 127) {
      const std::size_t width = form == 126 ? 2 : 8;
      for (const std::uint64_t len : mutation::extreme_lengths(width, actual)) {
        const Bytes mutant = mutation::with_be(seed, 2, width, len);
        check(mutant);
        check(mutation::resized(mutant, seed.size() + 1 + rng.bounded(16), rng));
      }
    }
    // The same payload behind a 64-bit length field of every extreme.
    for (const std::uint64_t len : mutation::extreme_lengths(8, actual)) {
      Bytes mutant = {seed[0], static_cast<std::uint8_t>((seed[1] & 0x80) | 127)};
      mutant.resize(10);
      mutant = mutation::with_be(mutant, 2, 8, len);
      const std::size_t mask_at = header - (masked ? 4 : 0);  // mask key, then payload
      mutant.insert(mutant.end(), seed.begin() + static_cast<std::ptrdiff_t>(mask_at), seed.end());
      check(mutant);
    }
  }
}

}  // namespace
}  // namespace ruru
