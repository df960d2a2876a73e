// Seeded mutation driver for decode_alert: byte flips, truncation at
// every offset, digit-run extension and extreme numbers written over the
// time and score fields.  Every mutant must be rejected, or decode to an
// alert whose strings survive a re-encode exactly.  The encoder prints
// numbers with six significant digits, so numbers are compared after
// one re-encode: from there the alert must re-encode and decode to
// itself.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anomaly/alert_codec.hpp"
#include "mutation.hpp"

namespace ruru {
namespace {

using mutation::Bytes;

std::optional<Alert> reencoded(const Alert& a) { return decode_alert(encode_alert(a).frames[1]); }

void check(const Bytes& bytes) {
  const auto first = decode_alert(Frame::adopt(bytes));
  if (!first) return;
  const auto second = reencoded(*first);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->kind, first->kind);
  EXPECT_EQ(second->subject, first->subject);
  EXPECT_EQ(second->detail, first->detail);

  const auto third = reencoded(*second);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->time.ns, second->time.ns);
  EXPECT_EQ(third->score, second->score);
  EXPECT_EQ(third->kind, second->kind);
  EXPECT_EQ(third->subject, second->subject);
  EXPECT_EQ(third->detail, second->detail);
}

Bytes bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

std::vector<std::string> seeds() {
  std::vector<std::string> out;
  Alert a;
  a.time = Timestamp::from_ms(12'345);
  a.kind = "syn-flood";
  a.subject = "10.1.0.80";
  a.score = 487.5;
  a.detail = "500 SYNs, 3 completions (ratio 0.006) in 1.0s window";
  out.emplace_back(encode_alert(a).frames[1].view());
  a.time = Timestamp{-1'500'000'000};
  a.kind = "latency-spike";
  a.subject = "Auckland|Los Angeles";
  a.score = -3.25e-7;
  a.detail = "tab\there \"quoted\" back\\slash\nctl\x01\x1f";
  out.emplace_back(encode_alert(a).frames[1].view());
  a.time = Timestamp{9'200'000'000'000'000'000};  // near the int64 edge
  a.kind = "";
  a.subject = "";
  a.detail = "";
  out.emplace_back(encode_alert(a).frames[1].view());
  return out;
}

/// Offset of the number after `"key":` in an encoded alert.
std::size_t number_at(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  return doc.find(needle) + needle.size();
}

/// `doc` with the number after `"key":` replaced by `text`.
std::string with_number(const std::string& doc, const std::string& key, const std::string& text) {
  const std::size_t at = number_at(doc, key);
  return doc.substr(0, at) + text + doc.substr(doc.find_first_of(",}", at));
}

TEST(AlertCodecFuzz, SeedsRoundTrip) {
  for (const std::string& seed : seeds()) {
    ASSERT_TRUE(decode_alert(Frame::from_string(seed)).has_value()) << seed;
    check(bytes_of(seed));
  }
}

TEST(AlertCodecFuzz, TruncationAtEveryOffset) {
  for (const std::string& seed : seeds()) {
    for (std::size_t n = 0; n < seed.size(); ++n) check(bytes_of(seed.substr(0, n)));
  }
}

TEST(AlertCodecFuzz, ByteFlips) {
  Pcg32 rng(0xA1E1);
  const std::vector<std::string> all = seeds();
  for (int i = 0; i < 20'000; ++i) {
    check(mutation::flip_bytes(bytes_of(all[i % all.size()]), rng));
  }
}

TEST(AlertCodecFuzz, ExtremeNumbers) {
  const char* const kExtremes[] = {
      "1e300", "-1e300", "nan", "-nan", "inf", "-inf", "1e-300", "-0", "9223372036.854775807",
      "9223372036.854775808", "-9223372036.854775808", "-9223372036.854775809", "9.3e9",
      "0x1p63", "1e", "-", "", "null", "99999999999999999999999999999"};
  for (const std::string& seed : seeds()) {
    for (const char* key : {"t", "score"}) {
      for (const char* text : kExtremes) check(bytes_of(with_number(seed, key, text)));
    }
  }
}

TEST(AlertCodecFuzz, DigitRunExtension) {
  Pcg32 rng(0xA1E2);
  const std::vector<std::string> all = seeds();
  for (int i = 0; i < 5'000; ++i) {
    std::string doc = all[i % all.size()];
    const std::size_t at = number_at(doc, rng.chance(0.5) ? "t" : "score");
    std::string digits(1 + rng.bounded(24), '0');
    for (char& d : digits) d = static_cast<char>('0' + rng.bounded(10));
    doc.insert(at + rng.bounded(4), digits);
    check(bytes_of(doc));
  }
}

}  // namespace
}  // namespace ruru
