#pragma once
// Deployment configuration files.
//
// A deployed tap is driven by ops, not by recompiling: this parses a
// simple `key = value` format (with `#` comments and [section] headers
// flattened into dotted keys) into PipelineConfig.  Unknown keys are
// errors — typos in monitoring configs must not silently no-op.
//
// Every key is one ConfigKey row: the dotted name, the PipelineConfig
// field it sets, the value kind and the allowed range.  The parser looks
// the row up and parses by kind, then checks every row's range against
// the final config, defaults included.  Only rules relating two fields
// are code.  README "Operator configuration" lists every key.

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "core/pipeline.hpp"
#include "util/result.hpp"

namespace ruru {

/// Seconds are finite, >= 0 and below 2^63 ns; booleans are true/false,
/// 1/0, yes/no or on/off; a CPU list is comma-separated ids, -1 = unpinned.
enum class KeyKind { kUnsigned, kBool, kSeconds, kNumber, kString, kCpuList, kChoice };

struct ConfigKey;

/// The field behind a key.  kUnsigned and kNumber fields also carry their
/// value for the range check; kUnsigned ones their type's maximum.
struct ConfigField {
  KeyKind kind;
  Status (*set)(const ConfigKey& key, const std::string& value, PipelineConfig& cfg);
  const void* (*at)(const PipelineConfig& cfg);  ///< the field's address
  double (*number)(const PipelineConfig& cfg) = nullptr;
  std::uint64_t type_max = 0;
};

/// kUnsigned and kNumber values lie in [lo, hi] ((lo, hi] when `lo_open`;
/// powers of two only when `pow2`); unsigned ones also fit their field's
/// type.  kChoice values are one of `choices`.
struct ConfigRange {
  double lo = 0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool pow2 = false;
  std::span<const std::string_view> choices = {};
};

struct ConfigKey {
  const char* name;
  ConfigField field;
  ConfigRange range = {};
};

/// Every key the parser accepts, one row each.
[[nodiscard]] std::span<const ConfigKey> config_keys();

/// Parses the key=value text into a flat map ("section.key" -> value).
[[nodiscard]] Result<std::map<std::string, std::string>> parse_config_text(
    const std::string& text);

/// Parses text and applies it over `defaults`. Unknown keys or
/// malformed values produce an error naming the offender.
[[nodiscard]] Result<PipelineConfig> pipeline_config_from_text(const std::string& text,
                                                               PipelineConfig defaults = {});

/// Reads `path` and calls pipeline_config_from_text.
[[nodiscard]] Result<PipelineConfig> pipeline_config_from_file(const std::string& path,
                                                               PipelineConfig defaults = {});

}  // namespace ruru
