#include "anomaly/alert_codec.hpp"

#include <gtest/gtest.h>

namespace ruru {
namespace {

Alert sample_alert() {
  Alert a;
  a.time = Timestamp::from_ms(12'345);
  a.kind = "syn-flood";
  a.subject = "10.1.0.80";
  a.score = 487.5;
  a.detail = "500 SYNs, 3 completions (ratio 0.006) in 1.0s window";
  return a;
}

TEST(AlertCodec, EncodesJsonDocument) {
  const Message m = encode_alert(sample_alert());
  EXPECT_EQ(m.topic(), kAlertTopic);
  ASSERT_EQ(m.frames.size(), 2u);
  const std::string json(m.frames[1].view());
  EXPECT_NE(json.find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"syn-flood\""), std::string::npos);
  EXPECT_NE(json.find("\"subject\":\"10.1.0.80\""), std::string::npos);
  EXPECT_NE(json.find("\"score\":487.5"), std::string::npos);
}

TEST(AlertCodec, RoundTrip) {
  const Alert a = sample_alert();
  const auto d = decode_alert(encode_alert(a).frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, a.kind);
  EXPECT_EQ(d->subject, a.subject);
  EXPECT_EQ(d->detail, a.detail);
  EXPECT_NEAR(d->score, a.score, 1e-6);
  EXPECT_NEAR(d->time.to_sec(), a.time.to_sec(), 1e-3);
}

TEST(AlertCodec, EpochTimeRoundTripsExactly) {
  // Six significant digits would have sent 1.7e+09: the time to the
  // nearest 1000 s.
  Alert a = sample_alert();
  a.time = Timestamp::from_ms(1'700'000'123'456);
  const Message m = encode_alert(a);
  const std::string json(m.frames[1].view());
  EXPECT_NE(json.find("\"t\":1700000123.456,"), std::string::npos) << json;
  const auto d = decode_alert(m.frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->time, a.time);
}

TEST(AlertCodec, RoundTripWithEscapedCharacters) {
  Alert a = sample_alert();
  a.detail = "line1\nline2\t\"quoted\"";
  const auto d = decode_alert(encode_alert(a).frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->detail, a.detail);
}

TEST(AlertCodec, RoundTripWithControlBytes) {
  Alert a = sample_alert();
  a.subject = std::string("ctl\x01\x1f", 5);  // JsonWriter escapes these as u + 4 hex
  const auto d = decode_alert(encode_alert(a).frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->subject, a.subject);
}

TEST(AlertCodec, DecodeRejectsHugeTime) {
  // 1e300 s is far past int64 nanoseconds; the cast used to be UB.
  EXPECT_FALSE(
      decode_alert(Frame::from_string(R"({"type":"alert","t":1e300,"kind":"x"})")).has_value());
  EXPECT_FALSE(
      decode_alert(Frame::from_string(R"({"type":"alert","t":-1e300,"kind":"x"})")).has_value());
}

TEST(AlertCodec, DecodeRejectsNanTime) {
  EXPECT_FALSE(
      decode_alert(Frame::from_string(R"({"type":"alert","t":nan,"kind":"x"})")).has_value());
  EXPECT_FALSE(
      decode_alert(Frame::from_string(R"({"type":"alert","t":inf,"kind":"x"})")).has_value());
}

TEST(AlertCodec, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode_alert(Frame::from_string("not json")).has_value());
  EXPECT_FALSE(decode_alert(Frame::from_string("{}")).has_value());
  EXPECT_FALSE(decode_alert(Frame()).has_value());
}

}  // namespace
}  // namespace ruru
