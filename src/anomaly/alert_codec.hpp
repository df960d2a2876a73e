#pragma once
// JSON encoding of alerts for the bus topic "ruru.alerts" — the form
// operator tooling (chat bots, pagers, the web UI's alert panel)
// consumes.

#include <optional>

#include "anomaly/alert.hpp"
#include "msg/message.hpp"

namespace ruru {

inline constexpr std::string_view kAlertTopic = "ruru.alerts";

/// Two-frame message: [topic, JSON payload].
[[nodiscard]] Message encode_alert(const Alert& alert);

/// Parses a payload produced by encode_alert (field-order dependent —
/// intended for round-trip within one Ruru version).  Rejects a time
/// that is not finite or does not fit int64 nanoseconds.
[[nodiscard]] std::optional<Alert> decode_alert(const Frame& payload);

}  // namespace ruru
