#include "anomaly/alert_codec.hpp"

#include <cmath>
#include <cstdlib>

#include "util/json_writer.hpp"

namespace ruru {

Message encode_alert(const Alert& alert) {
  JsonWriter w;
  w.begin_object()
      .key("type")
      .value("alert")
      .key("t")
      .value(alert.time.to_sec())
      .key("kind")
      .value(alert.kind)
      .key("subject")
      .value(alert.subject)
      .key("score")
      .value(alert.score)
      .key("detail")
      .value(alert.detail)
      .end_object();
  Message m(kAlertTopic);
  m.add(Frame::from_string(w.str()));
  return m;
}

namespace {

/// Pulls the JSON string value following `"key":"` — sufficient for the
/// fixed documents encode_alert emits (values were escaped by
/// JsonWriter; this un-escapes the common cases).
std::optional<std::string> get_string(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = doc.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = pos + needle.size(); i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '\\' && i + 1 < doc.size()) {
      const char n = doc[++i];
      switch (n) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u':  // JsonWriter escapes other control bytes as u + 4 hex digits
          if (i + 4 >= doc.size()) return std::nullopt;
          out += static_cast<char>(std::strtoul(doc.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
          break;
        default: out += n;
      }
      continue;
    }
    if (c == '"') return out;
    out += c;
  }
  return std::nullopt;
}

std::optional<double> get_number(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = doc.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(doc.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

std::optional<Alert> decode_alert(const Frame& payload) {
  const std::string doc(payload.view());
  const auto kind = get_string(doc, "kind");
  const auto subject = get_string(doc, "subject");
  const auto detail = get_string(doc, "detail");
  const auto t = get_number(doc, "t");
  const auto score = get_number(doc, "score");
  if (!kind || !t) return std::nullopt;
  // Rejects NaN, infinities and times past int64 nanoseconds; rounding
  // (not truncating) lets an encoded time decode to the same value.
  const double ns = *t * 1e9;
  if (!(ns >= -0x1p63 && ns < 0x1p63)) return std::nullopt;
  Alert a;
  a.time = Timestamp{std::llround(ns)};
  a.kind = *kind;
  a.subject = subject.value_or("");
  a.detail = detail.value_or("");
  a.score = score.value_or(0.0);
  return a;
}

}  // namespace ruru
