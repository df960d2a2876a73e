#include "util/json_writer.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace ruru {

void JsonWriter::reset() {
  out_.clear();
  need_comma_ = false;
}

void JsonWriter::comma_if_needed() {
  if (need_comma_) out_.push_back(',');
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_.push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_.push_back('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_.push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma_if_needed();
  out_.push_back('"');
  append_escaped(k);
  out_.append("\":");
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_if_needed();
  out_.push_back('"');
  append_escaped(v);
  out_.push_back('"');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_if_needed();
  if (std::isfinite(v)) {
    // Shortest digits that parse back to exactly `v`: an epoch-scale
    // time in seconds keeps its milliseconds.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, res.ptr);
  } else {
    out_.append("null");  // JSON has no NaN/Inf
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_if_needed();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_.append(buf);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_if_needed();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_.append(buf);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_if_needed();
  out_.append(v ? "true" : "false");
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_if_needed();
  out_.append("null");
  need_comma_ = true;
  return *this;
}

void JsonWriter::append_escaped(std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out_.append("\\\""); break;
      case '\\': out_.append("\\\\"); break;
      case '\n': out_.append("\\n"); break;
      case '\r': out_.append("\\r"); break;
      case '\t': out_.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_.append(buf);
        } else {
          out_.push_back(c);
        }
    }
  }
}

}  // namespace ruru
