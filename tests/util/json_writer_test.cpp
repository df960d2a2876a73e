#include "util/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ruru {
namespace {

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(JsonWriter, SimpleObject) {
  JsonWriter w;
  w.begin_object().key("a").value(std::int64_t{1}).key("b").value("x").end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"x"})");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter w;
  w.begin_object()
      .key("arr")
      .begin_array()
      .value(std::int64_t{1})
      .value(std::int64_t{2})
      .begin_object()
      .key("k")
      .value(true)
      .end_object()
      .end_array()
      .key("n")
      .null()
      .end_object();
  EXPECT_EQ(w.str(), R"({"arr":[1,2,{"k":true}],"n":null})");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  JsonWriter w;
  w.begin_object().key("s").value("a\"b\\c\nd\te\r").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\r\"}");
}

TEST(JsonWriter, EscapesControlCharacters) {
  JsonWriter w;
  std::string s = "x";
  s.push_back('\x01');
  w.begin_array().value(s).end_array();
  EXPECT_EQ(w.str(), "[\"x\\u0001\"]");
}

TEST(JsonWriter, NumbersRoundTrip) {
  JsonWriter w;
  w.begin_array()
      .value(3.5)
      .value(std::int64_t{-42})
      .value(std::uint64_t{18446744073709551615ULL})
      .end_array();
  EXPECT_EQ(w.str(), "[3.5,-42,18446744073709551615]");
}

TEST(JsonWriter, DoublesUseShortestRoundTripDigits) {
  JsonWriter w;
  w.begin_array().value(1700000123.456).value(0.1).value(1e21).value(-2.5e-7).end_array();
  EXPECT_EQ(w.str(), "[1700000123.456,0.1,1e+21,-2.5e-07]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::nan("")).value(1.0 / 0.0).end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, ResetReusesBuffer) {
  JsonWriter w;
  w.begin_object().key("a").value(std::int64_t{1}).end_object();
  w.reset();
  w.begin_array().end_array();
  EXPECT_EQ(w.str(), "[]");
}

TEST(JsonWriter, ArrayOfStrings) {
  JsonWriter w;
  w.begin_array().value("one").value("two").end_array();
  EXPECT_EQ(w.str(), R"(["one","two"])");
}

}  // namespace
}  // namespace ruru
