#include "core/config_file.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ranges>
#include <sstream>
#include <type_traits>

namespace ruru {

namespace {

std::string trim(std::string s) {
  const auto first = s.find_first_not_of(" \t\r");
  const auto last = s.find_last_not_of(" \t\r");
  if (first == std::string::npos) return {};
  return s.substr(first, last - first + 1);
}

Error bad_value(const ConfigKey& key, const std::string& what, const std::string& value) {
  return make_error("config: '" + std::string(key.name) + "' " + what + ", got '" + value + "'");
}

/// A bound or a default as an operator would write it.
std::string format_number(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 15).ptr};
}

Error range_error(const ConfigKey& key, const std::string& value) {
  const ConfigRange& r = key.range;
  std::string allowed;
  if (key.field.kind == KeyKind::kChoice) {
    for (const auto c : r.choices) allowed.append(allowed.empty() ? "one of " : ", ").append(c);
  } else {
    const bool type_capped = key.field.kind == KeyKind::kUnsigned &&
                             r.hi >= static_cast<double>(key.field.type_max);
    allowed = std::string(r.pow2 ? "a power of two in " : "in ") + (r.lo_open ? "(" : "[") +
              format_number(r.lo) + ", " +
              (type_capped ? std::to_string(key.field.type_max) + "]"
                           : format_number(r.hi) + (std::isinf(r.hi) ? ")" : "]"));
  }
  return bad_value(key, "must be " + allowed, value);
}

bool in_range(const ConfigKey& key, double v) {
  const ConfigRange& r = key.range;
  if (!std::isfinite(v) || v > r.hi || (r.lo_open ? v <= r.lo : v < r.lo)) return false;
  return !r.pow2 || std::has_single_bit(static_cast<std::uint64_t>(v));
}

// Value parsers, one per kind: (row, text) -> the field's value.

/// Rejects values the field's type cannot hold, before the store would
/// truncate them; the row's range is checked on the final config.
Result<std::uint64_t> parse_unsigned(const ConfigKey& key, const std::string& value) {
  const char* last = value.data() + value.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  if (end != last || ec == std::errc::invalid_argument) {
    return bad_value(key, "expects an unsigned integer", value);
  }
  if (ec == std::errc::result_out_of_range || v > key.field.type_max) {
    return range_error(key, value);
  }
  return v;
}

Result<double> parse_number(const ConfigKey& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') return bad_value(key, "expects a number", value);
  return v;
}

Result<bool> parse_bool(const ConfigKey& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") return true;
  if (value == "false" || value == "0" || value == "no" || value == "off") return false;
  return bad_value(key, "expects a boolean", value);
}

Result<Duration> parse_seconds(const ConfigKey& key, const std::string& value) {
  auto v = parse_number(key, value);
  if (!v) return make_error(v.error());
  // Duration counts int64 ns: from_sec's float->int cast is undefined
  // outside that range (2^63 ns is ~292 years), and no span is negative.
  const double sec = v.value();
  if (!std::isfinite(sec) || sec < 0.0 || sec * 1e9 >= 0x1p63) {
    return bad_value(key, "must be a finite, non-negative number of seconds below 2^63 ns", value);
  }
  return Duration::from_sec(sec);
}

/// kString and kChoice: any text, or one of the row's choices.
Result<std::string> parse_string(const ConfigKey& key, const std::string& value) {
  const auto& choices = key.range.choices;
  if (!choices.empty() && std::ranges::find(choices, value) == choices.end()) {
    return range_error(key, value);
  }
  return value;
}

/// Comma-separated CPU list, e.g. "0,1,2,3" or "0,1,-1,3" (-1 = leave
/// that slot unpinned).
Result<std::vector<int>> parse_cpu_list(const ConfigKey& key, const std::string& value) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = std::min(value.find(',', pos), value.size());
    const std::string item = trim(value.substr(pos, comma - pos));
    pos = comma + 1;
    int cpu = 0;
    const char* last = item.data() + item.size();
    const auto [end, ec] = std::from_chars(item.data(), last, cpu);
    if (end != last || ec != std::errc{} || cpu > 1'000'000 ||
        (item.starts_with('-') && item != "-1")) {
      return bad_value(key, "expects CPU ids in [0, 1000000] or -1 (unpinned)", value);
    }
    out.push_back(cpu);
  }
  return out;
}

Result<RssKey> parse_rss_key(const ConfigKey& key, const std::string& value) {
  auto symmetric = parse_bool(key, value);
  if (!symmetric) return make_error(symmetric.error());
  return symmetric.value() ? symmetric_rss_key() : default_rss_key();
}

// Field accessors.  field_at<&PipelineConfig::ewma, &EwmaConfig::k_sigma>
// is cfg.ewma.k_sigma; field_of bundles a row's accessors for one kind.

template <auto... M>
constexpr auto& field_at(auto& cfg) {
  return (cfg .* ... .* M);
}

template <auto... M>
using FieldType = std::remove_cvref_t<decltype(field_at<M...>(std::declval<PipelineConfig&>()))>;

template <KeyKind K, auto Parse, auto... M>
constexpr ConfigField field_of = [] {
  ConfigField f{K, [](const ConfigKey& key, const std::string& value, PipelineConfig& cfg) {
                  auto v = Parse(key, value);
                  if (!v) return Status(make_error(v.error()));
                  field_at<M...>(cfg) = static_cast<FieldType<M...>>(std::move(v.value()));
                  return Status();
                },
                [](const PipelineConfig& cfg) -> const void* { return &field_at<M...>(cfg); }};
  if constexpr (K == KeyKind::kUnsigned || K == KeyKind::kNumber) {
    f.number = [](const PipelineConfig& cfg) { return static_cast<double>(field_at<M...>(cfg)); };
  }
  if constexpr (K == KeyKind::kUnsigned) f.type_max = std::numeric_limits<FieldType<M...>>::max();
  return f;
}();

template <auto... M>
constexpr ConfigField uint_at = field_of<KeyKind::kUnsigned, parse_unsigned, M...>;
template <auto... M>
constexpr ConfigField number_at = field_of<KeyKind::kNumber, parse_number, M...>;
template <auto... M>
constexpr ConfigField bool_at = field_of<KeyKind::kBool, parse_bool, M...>;
template <auto... M>
constexpr ConfigField seconds_at = field_of<KeyKind::kSeconds, parse_seconds, M...>;
template <auto... M>
constexpr ConfigField string_at = field_of<KeyKind::kString, parse_string, M...>;
template <auto... M>
constexpr ConfigField choice_at = field_of<KeyKind::kChoice, parse_string, M...>;
template <auto... M>
constexpr ConfigField cpu_list_at = field_of<KeyKind::kCpuList, parse_cpu_list, M...>;

/// rte_ring's size limit.  Ring-backed sizes round up to a power of two,
/// which would overflow (or spin forever) past it.
constexpr double kMaxRingSlots = 0x1p31;

constexpr auto kDownsampleStats =
    std::to_array<std::string_view>({"mean", "median", "min", "max", "p99", "count"});

using Cfg = PipelineConfig;

constexpr auto kConfigKeys = std::to_array<ConfigKey>({
    {"capture.queues", uint_at<&Cfg::num_queues>, {.lo = 1}},
    {"capture.queue_depth", uint_at<&Cfg::queue_depth>, {.hi = kMaxRingSlots}},
    {"capture.mempool", uint_at<&Cfg::mempool_size>},
    {"capture.mbuf_size", uint_at<&Cfg::mbuf_size>},
    {"capture.symmetric_rss", field_of<KeyKind::kBool, parse_rss_key, &Cfg::rss_key>},
    {"capture.inject_burst", uint_at<&Cfg::inject_burst_size>, {.lo = 1}},
    {"flow.fast_path", bool_at<&Cfg::worker_fast_path>},
    {"flow.table_capacity", uint_at<&Cfg::flow_table_capacity>, {.hi = kMaxRingSlots}},
    {"flow.stale_after_s", seconds_at<&Cfg::flow_stale_after>},
    {"flow.probe_window", uint_at<&Cfg::flow_probe_window>,
     {.lo = 16, .hi = kMaxRingSlots, .pow2 = true}},
    {"flow.inflow_rtt", bool_at<&Cfg::inflow_rtt>},
    {"flow.ts_ring_entries", uint_at<&Cfg::ts_ring_entries>, {.lo = 2, .hi = 64, .pow2 = true}},
    {"flow.inflow_min_interval_us", uint_at<&Cfg::inflow_min_interval_us>, {.hi = 60'000'000}},
    {"flow.prefetch_depth", uint_at<&Cfg::worker_prefetch_depth>, {.hi = 4}},
    {"bus.hwm", uint_at<&Cfg::bus_hwm>, {.hi = kMaxRingSlots}},
    {"bus.batch", uint_at<&Cfg::bus_batch_size>, {.lo = 1}},
    {"bus.batch_linger_s", seconds_at<&Cfg::bus_batch_linger>},
    {"analytics.threads", uint_at<&Cfg::enrichment_threads>, {.lo = 1}},
    {"topology.pin_cpus", cpu_list_at<&Cfg::pin_cpus>},
    {"storage.per_sample", bool_at<&Cfg::tsdb_store_samples>},
    {"storage.downsample_window_s", seconds_at<&Cfg::downsample_window>},
    {"storage.downsample_stat", choice_at<&Cfg::downsample_stat>, {.choices = kDownsampleStats}},
    {"storage.retention_s", seconds_at<&Cfg::retention_horizon>},
    {"storage.tsdb_shards", uint_at<&Cfg::tsdb_shards>, {.lo = 1, .hi = 256}},
    {"storage.tsdb_chunk_points", uint_at<&Cfg::tsdb_chunk_points>, {.lo = 1}},
    {"meter.enabled", bool_at<&Cfg::enable_link_meter>},
    {"meter.window_s", seconds_at<&Cfg::link_meter_window>},
    {"detectors.synflood", bool_at<&Cfg::enable_synflood>},
    {"detectors.synflood_min_syns", uint_at<&Cfg::synflood, &SynFloodConfig::min_syns>},
    {"detectors.synflood_window_s", seconds_at<&Cfg::synflood, &SynFloodConfig::window>},
    {"detectors.conncount", bool_at<&Cfg::enable_conncount>},
    {"detectors.ewma", bool_at<&Cfg::enable_ewma>},
    // NaN would never alert, a threshold <= 0 would alert on every sample.
    {"detectors.ewma_k_sigma", number_at<&Cfg::ewma, &EwmaConfig::k_sigma>, {.lo_open = true}},
    {"detectors.periodic", bool_at<&Cfg::enable_periodic>},
    {"detectors.periodic_period_s", seconds_at<&Cfg::periodic, &PeriodicConfig::period>},
    {"detectors.periodic_bucket_s", seconds_at<&Cfg::periodic, &PeriodicConfig::bucket>},
    {"obs.enabled", bool_at<&Cfg::metrics_enabled>},
    {"obs.interval_s", seconds_at<&Cfg::metrics_interval>},
    {"obs.transit_sample_every", uint_at<&Cfg::transit_sample_every>},
    {"obs.self_ingest", bool_at<&Cfg::metrics_self_ingest>},
    {"obs.prometheus_path", string_at<&Cfg::metrics_prometheus_path>},
    {"obs.json_path", string_at<&Cfg::metrics_json_path>},
    {"obs.trace_sample_n", uint_at<&Cfg::trace_sample_n>},
    {"obs.trace_ring", uint_at<&Cfg::trace_ring_capacity>, {.hi = kMaxRingSlots}},
    {"obs.trace_json_path", string_at<&Cfg::trace_json_path>},
    {"obs.watchdog", bool_at<&Cfg::watchdog_enabled>},
    {"obs.watchdog_interval_s", seconds_at<&Cfg::watchdog_interval>},
    {"obs.watchdog_stall_s", seconds_at<&Cfg::watchdog_stall_after>},
});

}  // namespace

std::span<const ConfigKey> config_keys() { return kConfigKeys; }

Result<std::map<std::string, std::string>> parse_config_text(const std::string& text) {
  std::map<std::string, std::string> out;
  std::string section;
  int line_no = 0;
  const auto error = [&line_no](const std::string& what) {
    return make_error("config: " + what + " at line " + std::to_string(line_no));
  };
  for (const auto raw : std::views::split(text, '\n')) {
    ++line_no;
    std::string line(raw.begin(), raw.end());
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') return error("unterminated section header");
      section = trim(line.substr(1, line.size() - 2));
      if (section.empty()) return error("empty section name");
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return error("expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) return error("empty key");
    const std::string full_key = section.empty() ? key : section + "." + key;
    if (!out.emplace(full_key, trim(line.substr(eq + 1))).second) {
      return error("duplicate key '" + full_key + "'");
    }
  }
  return out;
}

Result<PipelineConfig> pipeline_config_from_text(const std::string& text,
                                                 PipelineConfig defaults) {
  auto parsed = parse_config_text(text);
  if (!parsed) return make_error(parsed.error());
  const auto& values = parsed.value();

  PipelineConfig cfg = std::move(defaults);
  for (const auto& [name, value] : values) {
    const auto key = std::ranges::find(kConfigKeys, std::string_view(name), &ConfigKey::name);
    if (key == kConfigKeys.end()) return make_error("config: unknown key '" + name + "'");
    if (Status set = key->field.set(*key, value, cfg); !set) return make_error(set.error());
  }

  // Every row's range, defaults included; a value from the text is
  // quoted as written.
  for (const ConfigKey& key : kConfigKeys) {
    if (key.field.number == nullptr || in_range(key, key.field.number(cfg))) continue;
    const auto given = values.find(key.name);
    return range_error(key, given != values.end() ? given->second
                                                  : format_number(key.field.number(cfg)));
  }

  // Rules that relate two fields; their errors take key names from the table.
  const auto name = [&cfg](const auto& field) -> std::string {
    const auto at = [&cfg](const ConfigKey& key) { return key.field.at(cfg); };
    return std::ranges::find(kConfigKeys, static_cast<const void*>(&field), at)->name;
  };
  // The table rounds its capacity up to a power of two (minimum one
  // group); a window beyond that would probe the same groups twice.
  const std::size_t rounded_capacity =
      std::bit_ceil(std::max<std::size_t>(cfg.flow_table_capacity, 16));
  if (cfg.flow_probe_window > rounded_capacity) {
    return make_error("config: " + name(cfg.flow_probe_window) + " (" +
                      std::to_string(cfg.flow_probe_window) + ") exceeds " +
                      name(cfg.flow_table_capacity) + " (" +
                      std::to_string(cfg.flow_table_capacity) + ", rounded to " +
                      std::to_string(rounded_capacity) + ")");
  }
  if (Status pins = check_pin_list(cfg); !pins) return make_error("config: " + pins.error());
  if (cfg.trace_sample_n != 0 && cfg.trace_ring_capacity == 0) {
    return make_error("config: " + name(cfg.trace_ring_capacity) +
                      " must be >= 1 when tracing is enabled");
  }
  // A running stage needs a positive period.
  for (const auto& [on, period] : {std::pair{cfg.metrics_enabled, &cfg.metrics_interval},
                                   {cfg.watchdog_enabled, &cfg.watchdog_interval},
                                   {cfg.watchdog_enabled, &cfg.watchdog_stall_after}}) {
    if (on && period->ns <= 0) return make_error("config: " + name(*period) + " must be > 0");
  }
  return cfg;
}

Result<PipelineConfig> pipeline_config_from_file(const std::string& path,
                                                 PipelineConfig defaults) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error("config: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return pipeline_config_from_text(text.str(), std::move(defaults));
}

}  // namespace ruru
