#include "viz/websocket.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ruru {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Sha1, KnownVectors) {
  // FIPS 180-1 test vectors.
  auto hex = [](const std::array<std::uint8_t, 20>& d) {
    std::string out;
    char buf[3];
    for (const auto b : d) {
      std::snprintf(buf, sizeof buf, "%02x", b);
      out += buf;
    }
    return out;
  };
  EXPECT_EQ(hex(sha1(bytes("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(sha1(bytes(""))), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex(sha1(bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(hex(sha1(bytes(std::string(1000, 'a')))),
            "291e9a6c66994949b57ba5e650361e98fc36b1ba");
}

TEST(Base64, KnownVectors) {
  // RFC 4648 test vectors.
  EXPECT_EQ(base64_encode(bytes("")), "");
  EXPECT_EQ(base64_encode(bytes("f")), "Zg==");
  EXPECT_EQ(base64_encode(bytes("fo")), "Zm8=");
  EXPECT_EQ(base64_encode(bytes("foo")), "Zm9v");
  EXPECT_EQ(base64_encode(bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64_encode(bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64_encode(bytes("foobar")), "Zm9vYmFy");
}

TEST(WebSocket, AcceptKeyFromRfcExample) {
  // RFC 6455 §1.3 worked example.
  EXPECT_EQ(websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ=="),
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=");
}

TEST(WebSocket, ShortTextFrameRoundTrip) {
  const auto wire = ws_encode_text("hello");
  EXPECT_EQ(wire.size(), 2u + 5u);
  EXPECT_EQ(wire[0], 0x81);  // FIN | text
  EXPECT_EQ(wire[1], 5);     // unmasked, len 5

  const auto frame = ws_decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->opcode, WsOpcode::kText);
  EXPECT_TRUE(frame->fin);
  EXPECT_EQ(std::string(frame->payload.begin(), frame->payload.end()), "hello");
  EXPECT_EQ(frame->wire_size, wire.size());
}

TEST(WebSocket, MediumFrameUses16BitLength) {
  const std::string payload(300, 'x');
  const auto wire = ws_encode_text(payload);
  EXPECT_EQ(wire[1], 126);
  EXPECT_EQ(wire.size(), 4u + 300u);
  const auto frame = ws_decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), 300u);
}

TEST(WebSocket, LargeFrameUses64BitLength) {
  const std::string payload(70'000, 'y');
  const auto wire = ws_encode_text(payload);
  EXPECT_EQ(wire[1], 127);
  EXPECT_EQ(wire.size(), 10u + 70'000u);
  const auto frame = ws_decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), 70'000u);
}

TEST(WebSocket, MaskedFrameRoundTrip) {
  const std::string payload = "masked payload!";
  const std::array<std::uint8_t, 4> mask = {0x12, 0x34, 0x56, 0x78};
  const auto wire = ws_encode_frame_masked(WsOpcode::kText, bytes(payload), mask);
  EXPECT_EQ(wire[1] & 0x80, 0x80);  // mask bit set
  // Payload on the wire is actually scrambled.
  EXPECT_NE(std::string(wire.begin() + 6, wire.end()), payload);
  const auto frame = ws_decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(std::string(frame->payload.begin(), frame->payload.end()), payload);
}

TEST(WebSocket, BinaryAndControlOpcodes) {
  const std::uint8_t data[3] = {1, 2, 3};
  const auto bin = ws_encode_frame(WsOpcode::kBinary, data);
  EXPECT_EQ(bin[0] & 0x0f, 0x2);
  const auto ping = ws_encode_frame(WsOpcode::kPing, {});
  const auto f = ws_decode_frame(ping);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->opcode, WsOpcode::kPing);
  EXPECT_TRUE(f->payload.empty());
}

TEST(WebSocket, IncompleteFramesReturnNullopt) {
  const auto wire = ws_encode_text("some payload here");
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(ws_decode_frame(std::span<const std::uint8_t>(wire.data(), len)).has_value())
        << "prefix " << len;
  }
}

TEST(WebSocket, HugeLengthFieldsNeverWrap) {
  // 64-bit length 2^64-1: pos + len wraps to 9, which once passed the
  // completeness check and handed vector::assign a reversed range.
  const std::vector<std::uint8_t> wrapping = {0x81, 0x7f, 0xff, 0xff, 0xff, 0xff,
                                              0xff, 0xff, 0xff, 0xff, 0x61, 0x62};
  EXPECT_FALSE(ws_decode_frame(wrapping).has_value());
  // The largest legal length (top bit clear) is merely incomplete.
  std::vector<std::uint8_t> legal = wrapping;
  legal[2] = 0x7f;
  EXPECT_FALSE(ws_decode_frame(legal).has_value());
  // Masked: the mask key sits between the length and the payload.
  std::vector<std::uint8_t> masked = wrapping;
  masked[1] = 0xff;
  masked.insert(masked.end(), {1, 2, 3, 4});
  EXPECT_FALSE(ws_decode_frame(masked).has_value());
}

TEST(WebSocket, DecodeReportsConsumedBytesForStreamParsing) {
  auto wire = ws_encode_text("first");
  const auto second = ws_encode_text("second");
  wire.insert(wire.end(), second.begin(), second.end());

  const auto f1 = ws_decode_frame(wire);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(std::string(f1->payload.begin(), f1->payload.end()), "first");
  const auto f2 = ws_decode_frame(std::span<const std::uint8_t>(wire).subspan(f1->wire_size));
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(std::string(f2->payload.begin(), f2->payload.end()), "second");
}

}  // namespace
}  // namespace ruru
