#pragma once
// RFC 6455 WebSocket framing + handshake pieces (server side).
//
// The paper pushes enriched measurements "to the frontend (using
// WebSockets)".  This module implements the protocol mechanics a C++
// server needs: the Sec-WebSocket-Accept derivation (SHA-1 + Base64)
// and text/binary/close frame encoding plus client-frame decoding
// (clients mask, servers don't).

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ruru {

/// SHA-1 (needed only for the WebSocket handshake; not for security).
[[nodiscard]] std::array<std::uint8_t, 20> sha1(std::span<const std::uint8_t> data);

[[nodiscard]] std::string base64_encode(std::span<const std::uint8_t> data);

/// Sec-WebSocket-Accept for a client's Sec-WebSocket-Key (RFC 6455 §4.2.2).
[[nodiscard]] std::string websocket_accept_key(std::string_view client_key);

enum class WsOpcode : std::uint8_t {
  kContinuation = 0x0,
  kText = 0x1,
  kBinary = 0x2,
  kClose = 0x8,
  kPing = 0x9,
  kPong = 0xA,
};

/// Encodes an unmasked (server -> client) frame with FIN set.
[[nodiscard]] std::vector<std::uint8_t> ws_encode_frame(WsOpcode opcode,
                                                        std::span<const std::uint8_t> payload);
[[nodiscard]] std::vector<std::uint8_t> ws_encode_text(std::string_view text);

/// Encodes a masked (client -> server) frame — used by tests and by any
/// embedded client.
[[nodiscard]] std::vector<std::uint8_t> ws_encode_frame_masked(
    WsOpcode opcode, std::span<const std::uint8_t> payload, std::array<std::uint8_t, 4> mask);

struct WsFrame {
  WsOpcode opcode = WsOpcode::kText;
  bool fin = true;
  std::vector<std::uint8_t> payload;  // unmasked
  std::size_t wire_size = 0;          // bytes consumed from the buffer
};

/// Decodes one frame from `data` (either direction; unmasks if needed).
/// Returns nullopt when `data` does not yet hold a complete frame, or
/// when a 64-bit length has its top bit set (RFC 6455 §5.2).
[[nodiscard]] std::optional<WsFrame> ws_decode_frame(std::span<const std::uint8_t> data);

}  // namespace ruru
