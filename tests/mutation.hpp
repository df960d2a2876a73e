#pragma once
// Seeded byte mutators shared by the decoder mutation drivers
// (latency codec, alert codec, WebSocket frames).  Each driver feeds its
// decoder valid encodings mangled by these: random byte flips, every
// truncation, and extreme values written over length fields.

#include <cstdint>
#include <vector>

#include "util/random.hpp"

namespace ruru::mutation {

using Bytes = std::vector<std::uint8_t>;

/// 1..4 bytes each flipped in one bit or replaced by a random value.
inline Bytes flip_bytes(Bytes bytes, Pcg32& rng) {
  if (bytes.empty()) return bytes;
  for (std::uint32_t flips = 1 + rng.bounded(4); flips > 0; --flips) {
    std::uint8_t& b = bytes[rng.bounded(static_cast<std::uint32_t>(bytes.size()))];
    b = rng.chance(0.5) ? static_cast<std::uint8_t>(b ^ (1u << rng.bounded(8)))
                        : static_cast<std::uint8_t>(rng.bounded(256));
  }
  return bytes;
}

/// `bytes` cut to `n` bytes (n <= size) or grown by random bytes to `n`.
inline Bytes resized(Bytes bytes, std::size_t n, Pcg32& rng) {
  const std::size_t old = bytes.size();
  bytes.resize(n);
  for (std::size_t i = old; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(rng.bounded(256));
  return bytes;
}

/// Writes `value`'s low `width` bytes big-endian at `at`.
inline Bytes with_be(Bytes bytes, std::size_t at, std::size_t width, std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * (width - 1 - i)));
  }
  return bytes;
}

/// Values that probe a length field of `width` bytes: both ends of the
/// field, the top bit alone, and the neighbours of `actual`.
inline std::vector<std::uint64_t> extreme_lengths(std::size_t width, std::uint64_t actual) {
  const std::uint64_t max = width >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * width)) - 1;
  const std::uint64_t top = std::uint64_t{1} << (8 * width - 1);
  return {0, 1, actual - 1, actual + 1, top - 1, top, max - 1, max};
}

}  // namespace ruru::mutation
