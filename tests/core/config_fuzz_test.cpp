// Seeded mutation driver for the operator config file: every mutant of a
// text that sets all keys must parse or fail cleanly, and any config the
// parser accepts must satisfy every key's range and the pin-list rule.
// Digit-run extension drives sizes past their bounds (a ring size that
// rounds up past 2^63 used to spin forever).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "core/config_file.hpp"
#include "util/random.hpp"

namespace ruru {
namespace {

constexpr const char* kEveryKey =
    "[capture]\n"
    "queues = 4\n"
    "queue_depth = 8192\n"
    "mempool = 65536\n"
    "mbuf_size = 2048\n"
    "symmetric_rss = true\n"
    "inject_burst = 32\n"
    "[flow]\n"
    "fast_path = true\n"
    "table_capacity = 65536\n"
    "stale_after_s = 30\n"
    "probe_window = 32\n"
    "inflow_rtt = true\n"
    "ts_ring_entries = 8\n"
    "inflow_min_interval_us = 10000\n"
    "prefetch_depth = 1\n"
    "[bus]\n"
    "hwm = 65536\n"
    "batch = 32\n"
    "batch_linger_s = 0.005\n"
    "[analytics]\n"
    "threads = 2\n"
    "[topology]\n"
    "pin_cpus = 0, 1, 2, 3, -1, 5\n"
    "[storage]\n"
    "per_sample = true\n"
    "downsample_window_s = 60\n"
    "downsample_stat = median\n"
    "retention_s = 3600\n"
    "tsdb_shards = 8\n"
    "tsdb_chunk_points = 512\n"
    "[meter]\n"
    "enabled = true\n"
    "window_s = 1\n"
    "[detectors]\n"
    "synflood = true\n"
    "synflood_min_syns = 200\n"
    "synflood_window_s = 1\n"
    "conncount = true\n"
    "ewma = true\n"
    "ewma_k_sigma = 4\n"
    "periodic = true\n"
    "periodic_period_s = 86400\n"
    "periodic_bucket_s = 60\n"
    "[obs]\n"
    "enabled = true\n"
    "interval_s = 1\n"
    "transit_sample_every = 16\n"
    "self_ingest = true\n"
    "prometheus_path = /tmp/ruru.prom\n"
    "json_path = /tmp/ruru.jsonl\n"
    "trace_sample_n = 64\n"
    "trace_ring = 4096\n"
    "trace_json_path = /tmp/ruru_trace.json\n"
    "watchdog = true\n"
    "watchdog_interval_s = 1\n"
    "watchdog_stall_s = 5\n";

/// Written out here rather than reusing the parser's check, so a range
/// the parser forgets to apply shows up as a violation.
bool within(const ConfigKey& key, const PipelineConfig& cfg) {
  const ConfigRange& r = key.range;
  if (key.field.kind == KeyKind::kChoice) {
    const auto& value = *static_cast<const std::string*>(key.field.at(cfg));
    return std::find(r.choices.begin(), r.choices.end(), value) != r.choices.end();
  }
  if (key.field.number == nullptr) return true;
  const double v = key.field.number(cfg);
  if (!std::isfinite(v) || v > r.hi || (r.lo_open ? !(v > r.lo) : v < r.lo)) return false;
  return !r.pow2 || std::has_single_bit(static_cast<std::uint64_t>(v));
}

/// Parses `text`; an accepted config must obey every row and the
/// cross-field rules.
void check(const std::string& text) {
  const auto r = pipeline_config_from_text(text);
  if (!r.ok()) {
    EXPECT_FALSE(r.error().empty());
    return;
  }
  const PipelineConfig& cfg = r.value();
  for (const ConfigKey& key : config_keys()) {
    EXPECT_TRUE(within(key, cfg)) << key.name << " out of range, accepted from:\n" << text;
  }
  EXPECT_TRUE(check_pin_list(cfg).ok()) << text;
  const std::size_t rounded_capacity =
      std::bit_ceil(std::max<std::size_t>(cfg.flow_table_capacity, 16));
  EXPECT_LE(cfg.flow_probe_window, rounded_capacity) << text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find('\n', pos), text.size() - 1) + 1;
    out.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

std::string flip_bytes(std::string text, Pcg32& rng) {
  const std::uint32_t flips = 1 + rng.bounded(4);
  for (std::uint32_t i = 0; i < flips; ++i) {
    char& c = text[rng.bounded(static_cast<std::uint32_t>(text.size()))];
    c = rng.chance(0.5) ? static_cast<char>(c ^ (1 << rng.bounded(8)))
                        : static_cast<char>(rng.bounded(256));
  }
  return text;
}

std::string duplicate_line(const std::string& text, Pcg32& rng) {
  std::vector<std::string> lines = lines_of(text);
  const std::size_t from = rng.bounded(static_cast<std::uint32_t>(lines.size()));
  const std::size_t to = rng.bounded(static_cast<std::uint32_t>(lines.size() + 1));
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to), lines[from]);
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

/// Appends 1..24 digits to a random run of digits.
std::string extend_digits(std::string text, Pcg32& rng) {
  std::vector<std::size_t> run_ends;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool digit = text[i] >= '0' && text[i] <= '9';
    const bool next_digit = i + 1 < text.size() && text[i + 1] >= '0' && text[i + 1] <= '9';
    if (digit && !next_digit) run_ends.push_back(i + 1);
  }
  if (run_ends.empty()) return text;
  const std::size_t at = run_ends[rng.bounded(static_cast<std::uint32_t>(run_ends.size()))];
  std::string digits(1 + rng.bounded(24), '0');
  for (char& d : digits) d = static_cast<char>('0' + rng.bounded(10));
  text.insert(at, digits);
  return text;
}

TEST(ConfigFuzz, SeedSetsEveryKeyAndParses) {
  const auto flat = parse_config_text(kEveryKey);
  ASSERT_TRUE(flat.ok()) << flat.error();
  std::set<std::string> given;
  for (const auto& [name, value] : flat.value()) given.insert(name);
  std::set<std::string> catalogue;
  for (const ConfigKey& key : config_keys()) catalogue.insert(key.name);
  EXPECT_EQ(given, catalogue);
  const auto r = pipeline_config_from_text(kEveryKey);
  ASSERT_TRUE(r.ok()) << r.error();
  check(kEveryKey);
}

TEST(ConfigFuzz, TruncationAtEveryOffset) {
  const std::string text = kEveryKey;
  for (std::size_t n = 0; n <= text.size(); ++n) check(text.substr(0, n));
}

TEST(ConfigFuzz, ByteFlips) {
  Pcg32 rng(0xC0F1);
  for (int i = 0; i < 4000; ++i) check(flip_bytes(kEveryKey, rng));
}

TEST(ConfigFuzz, DuplicatedLines) {
  Pcg32 rng(0xC0F2);
  for (int i = 0; i < 1000; ++i) check(duplicate_line(kEveryKey, rng));
}

TEST(ConfigFuzz, DigitRunExtension) {
  Pcg32 rng(0xC0F3);
  for (int i = 0; i < 4000; ++i) check(extend_digits(kEveryKey, rng));
}

TEST(ConfigFuzz, StackedMutations) {
  Pcg32 rng(0xC0F4);
  for (int i = 0; i < 4000; ++i) {
    std::string text = kEveryKey;
    for (std::uint32_t m = 1 + rng.bounded(4); m > 0; --m) {
      switch (rng.bounded(4)) {
        case 0: text = flip_bytes(text, rng); break;
        case 1: text = duplicate_line(text, rng); break;
        case 2: text = extend_digits(text, rng); break;
        default: text.resize(rng.bounded(static_cast<std::uint32_t>(text.size() + 1))); break;
      }
      if (text.empty()) break;
    }
    check(text);
  }
}

}  // namespace
}  // namespace ruru
