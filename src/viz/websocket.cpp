#include "viz/websocket.hpp"

#include <cstring>

#include "util/byte_order.hpp"

namespace ruru {

std::array<std::uint8_t, 20> sha1(std::span<const std::uint8_t> data) {
  // Straightforward FIPS 180-1 implementation; throughput is irrelevant
  // (one hash per WebSocket handshake).
  std::uint32_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};

  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  std::vector<std::uint8_t> msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  std::uint8_t len_be[8];
  store_be64(len_be, bit_len);
  msg.insert(msg.end(), len_be, len_be + 8);

  auto rotl = [](std::uint32_t v, int n) { return (v << n) | (v >> (32 - n)); };

  for (std::size_t chunk = 0; chunk < msg.size(); chunk += 64) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(&msg[chunk + static_cast<std::size_t>(i) * 4]);
    for (int i = 16; i < 80; ++i) w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }

  std::array<std::uint8_t, 20> digest{};
  for (int i = 0; i < 5; ++i) store_be32(&digest[static_cast<std::size_t>(i) * 4], h[i]);
  return digest;
}

std::string base64_encode(std::span<const std::uint8_t> data) {
  static const char* alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  out.reserve(((data.size() + 2) / 3) * 4);
  std::size_t i = 0;
  for (; i + 2 < data.size(); i += 3) {
    const std::uint32_t v = (std::uint32_t{data[i]} << 16) | (std::uint32_t{data[i + 1]} << 8) |
                            data[i + 2];
    out.push_back(alphabet[(v >> 18) & 63]);
    out.push_back(alphabet[(v >> 12) & 63]);
    out.push_back(alphabet[(v >> 6) & 63]);
    out.push_back(alphabet[v & 63]);
  }
  if (i + 1 == data.size()) {
    const std::uint32_t v = std::uint32_t{data[i]} << 16;
    out.push_back(alphabet[(v >> 18) & 63]);
    out.push_back(alphabet[(v >> 12) & 63]);
    out.append("==");
  } else if (i + 2 == data.size()) {
    const std::uint32_t v = (std::uint32_t{data[i]} << 16) | (std::uint32_t{data[i + 1]} << 8);
    out.push_back(alphabet[(v >> 18) & 63]);
    out.push_back(alphabet[(v >> 12) & 63]);
    out.push_back(alphabet[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

std::string websocket_accept_key(std::string_view client_key) {
  static constexpr std::string_view kGuid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";
  std::string joined;
  joined.reserve(client_key.size() + kGuid.size());
  joined.append(client_key);
  joined.append(kGuid);
  const auto digest =
      sha1(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(joined.data()),
                                         joined.size()));
  return base64_encode(digest);
}

namespace {

void append_header(std::vector<std::uint8_t>& out, WsOpcode opcode, std::size_t len, bool masked,
                   const std::array<std::uint8_t, 4>* mask) {
  out.push_back(static_cast<std::uint8_t>(0x80 | static_cast<std::uint8_t>(opcode)));  // FIN
  const std::uint8_t mask_bit = masked ? 0x80 : 0x00;
  if (len < 126) {
    out.push_back(static_cast<std::uint8_t>(mask_bit | len));
  } else if (len <= 0xffff) {
    out.push_back(static_cast<std::uint8_t>(mask_bit | 126));
    std::uint8_t b[2];
    store_be16(b, static_cast<std::uint16_t>(len));
    out.insert(out.end(), b, b + 2);
  } else {
    out.push_back(static_cast<std::uint8_t>(mask_bit | 127));
    std::uint8_t b[8];
    store_be64(b, len);
    out.insert(out.end(), b, b + 8);
  }
  if (masked) out.insert(out.end(), mask->begin(), mask->end());
}

}  // namespace

std::vector<std::uint8_t> ws_encode_frame(WsOpcode opcode,
                                          std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 10);
  append_header(out, opcode, payload.size(), false, nullptr);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> ws_encode_text(std::string_view text) {
  return ws_encode_frame(WsOpcode::kText,
                         std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::vector<std::uint8_t> ws_encode_frame_masked(WsOpcode opcode,
                                                 std::span<const std::uint8_t> payload,
                                                 std::array<std::uint8_t, 4> mask) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 14);
  append_header(out, opcode, payload.size(), true, &mask);
  const std::size_t start = out.size();
  out.insert(out.end(), payload.begin(), payload.end());
  for (std::size_t i = 0; i < payload.size(); ++i) out[start + i] ^= mask[i % 4];
  return out;
}

std::optional<WsFrame> ws_decode_frame(std::span<const std::uint8_t> data) {
  if (data.size() < 2) return std::nullopt;
  WsFrame frame;
  frame.fin = (data[0] & 0x80) != 0;
  frame.opcode = static_cast<WsOpcode>(data[0] & 0x0f);
  const bool masked = (data[1] & 0x80) != 0;
  std::uint64_t len = data[1] & 0x7f;
  std::size_t pos = 2;
  if (len == 126) {
    if (data.size() < 4) return std::nullopt;
    len = load_be16(&data[2]);
    pos = 4;
  } else if (len == 127) {
    if (data.size() < 10) return std::nullopt;
    len = load_be64(&data[2]);
    if ((len >> 63) != 0) return std::nullopt;  // RFC 6455 §5.2: top bit must be 0
    pos = 10;
  }
  std::array<std::uint8_t, 4> mask{};
  if (masked) {
    if (data.size() < pos + 4) return std::nullopt;
    std::memcpy(mask.data(), &data[pos], 4);
    pos += 4;
  }
  if (len > data.size() - pos) return std::nullopt;  // pos + len could wrap
  frame.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                       data.begin() + static_cast<std::ptrdiff_t>(pos + len));
  if (masked) {
    for (std::size_t i = 0; i < frame.payload.size(); ++i) frame.payload[i] ^= mask[i % 4];
  }
  frame.wire_size = pos + len;
  return frame;
}

}  // namespace ruru
