#include "core/config_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <set>

namespace ruru {
namespace {

/// "[section]\nleaf = value\n" for the dotted key `name`.
std::string key_line(std::string_view name, const std::string& value) {
  const std::size_t dot = name.find('.');
  return "[" + std::string(name.substr(0, dot)) + "]\n" + std::string(name.substr(dot + 1)) +
         " = " + value + "\n";
}

std::string exact(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void expect_rejected_naming(const std::string& text, std::string_view key,
                            const std::string& value) {
  const auto r = pipeline_config_from_text(text);
  ASSERT_FALSE(r.ok()) << text;
  EXPECT_NE(r.error().find(std::string(key)), std::string::npos) << r.error();
  EXPECT_NE(r.error().find("'" + value + "'"), std::string::npos) << r.error();
}

TEST(ConfigParse, FlatAndSectionedKeys) {
  const auto r = parse_config_text(
      "top = 1\n"
      "[capture]\n"
      "queues = 8   # inline comment\n"
      "\n"
      "# full-line comment\n"
      "[analytics]\n"
      "threads = 4\n");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& m = r.value();
  EXPECT_EQ(m.at("top"), "1");
  EXPECT_EQ(m.at("capture.queues"), "8");
  EXPECT_EQ(m.at("analytics.threads"), "4");
}

TEST(ConfigParse, RejectsMalformedLines) {
  EXPECT_FALSE(parse_config_text("just some words\n").ok());
  EXPECT_FALSE(parse_config_text("[unterminated\n").ok());
  EXPECT_FALSE(parse_config_text("[]\n").ok());
  EXPECT_FALSE(parse_config_text("= value\n").ok());
  EXPECT_FALSE(parse_config_text("a = 1\na = 2\n").ok());  // duplicate
}

TEST(ConfigParse, ErrorsNameTheLine) {
  const auto r = parse_config_text("ok = 1\nbroken line\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("line 2"), std::string::npos);
}

TEST(PipelineConfigFile, AppliesOverDefaults) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 8\n"
      "mempool = 131072\n"
      "[flow]\n"
      "table_capacity = 32768\n"
      "stale_after_s = 10.5\n"
      "[analytics]\n"
      "threads = 4\n"
      "[detectors]\n"
      "synflood = true\n"
      "synflood_min_syns = 500\n"
      "ewma = off\n"
      "periodic = yes\n"
      "periodic_period_s = 86400\n");
  ASSERT_TRUE(r.ok()) << r.error();
  const PipelineConfig& c = r.value();
  EXPECT_EQ(c.num_queues, 8);
  EXPECT_EQ(c.mempool_size, 131072u);
  EXPECT_EQ(c.flow_table_capacity, 32768u);
  EXPECT_EQ(c.flow_stale_after.ns, Duration::from_sec(10.5).ns);
  EXPECT_EQ(c.enrichment_threads, 4u);
  EXPECT_TRUE(c.enable_synflood);
  EXPECT_EQ(c.synflood.min_syns, 500u);
  EXPECT_FALSE(c.enable_ewma);
  EXPECT_TRUE(c.enable_periodic);
  EXPECT_EQ(c.periodic.period.ns, Duration::from_sec(86400).ns);
}

TEST(PipelineConfigFile, DefaultsPreservedForUnsetKeys) {
  PipelineConfig defaults;
  defaults.num_queues = 6;
  const auto r = pipeline_config_from_text("[analytics]\nthreads = 3\n", defaults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_queues, 6);
  EXPECT_EQ(r.value().enrichment_threads, 3u);
}

TEST(PipelineConfigFile, UnknownKeyIsAnError) {
  const auto r = pipeline_config_from_text("[capture]\nqueuez = 8\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("capture.queuez"), std::string::npos);
}

TEST(PipelineConfigFile, TypeErrorsAreNamed) {
  EXPECT_FALSE(pipeline_config_from_text("[capture]\nqueues = many\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[detectors]\nsynflood = maybe\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nstale_after_s = soon\n").ok());
}

TEST(PipelineConfigFile, SanityBounds) {
  EXPECT_FALSE(pipeline_config_from_text("[capture]\nqueues = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[analytics]\nthreads = 0\n").ok());

  // Hostile values are rejected, never wrapped or truncated, and the
  // error names the key.
  const auto rejected_naming_key = [](const std::string& text, const std::string& key) {
    const auto r = pipeline_config_from_text(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().find(key), std::string::npos) << r.error();
  };
  // capture.queues is a uint16_t: 65537 must not truncate to 1 queue,
  // and 2^64 + 1 must not wrap in the parser to 1.
  rejected_naming_key("[capture]\nqueues = 65537\n", "capture.queues");
  rejected_naming_key("[capture]\nqueues = 18446744073709551617\n", "capture.queues");
  rejected_naming_key("[flow]\ntable_capacity = 99999999999999999999\n", "flow.table_capacity");
  rejected_naming_key("[obs]\ntrace_sample_n = 4294967296\n", "obs.trace_sample_n");
  const auto widest = pipeline_config_from_text("[capture]\nqueues = 65535\n");
  ASSERT_TRUE(widest.ok()) << widest.error();
  EXPECT_EQ(widest.value().num_queues, 65535);
  const auto u64_max =
      pipeline_config_from_text("[detectors]\nsynflood_min_syns = 18446744073709551615\n");
  ASSERT_TRUE(u64_max.ok()) << u64_max.error();
  EXPECT_EQ(u64_max.value().synflood.min_syns, 18446744073709551615u);

  // Seconds must be finite, non-negative and fit int64 nanoseconds: the
  // float->int cast in Duration::from_sec is undefined outside that.
  rejected_naming_key("[flow]\nstale_after_s = nan\n", "flow.stale_after_s");
  rejected_naming_key("[flow]\nstale_after_s = inf\n", "flow.stale_after_s");
  rejected_naming_key("[flow]\nstale_after_s = 1e300\n", "flow.stale_after_s");
  rejected_naming_key("[flow]\nstale_after_s = 9223372037\n", "flow.stale_after_s");
  rejected_naming_key("[flow]\nstale_after_s = -5\n", "flow.stale_after_s");
  rejected_naming_key("[bus]\nbatch_linger_s = -0.001\n", "bus.batch_linger_s");
  const auto zero = pipeline_config_from_text("[flow]\nstale_after_s = 0\n");
  ASSERT_TRUE(zero.ok()) << zero.error();
  EXPECT_EQ(zero.value().flow_stale_after.ns, 0);
  const auto long_span = pipeline_config_from_text("[flow]\nstale_after_s = 9223372036\n");
  ASSERT_TRUE(long_span.ok()) << long_span.error();
  EXPECT_EQ(long_span.value().flow_stale_after.ns, Duration::from_sec(9223372036.0).ns);
}

TEST(PipelineConfigFile, StoragePolicyKeys) {
  const auto r = pipeline_config_from_text(
      "[storage]\ndownsample_window_s = 60\ndownsample_stat = p99\nretention_s = 3600\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().downsample_window.ns, Duration::from_sec(60).ns);
  EXPECT_EQ(r.value().downsample_stat, "p99");
  EXPECT_EQ(r.value().retention_horizon.ns, Duration::from_sec(3600).ns);
  EXPECT_FALSE(
      pipeline_config_from_text("[storage]\ndownsample_stat = mode\n").ok());
}

TEST(PipelineConfigFile, TsdbEngineKeys) {
  const auto r = pipeline_config_from_text(
      "[storage]\ntsdb_shards = 16\ntsdb_chunk_points = 1024\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().tsdb_shards, 16u);
  EXPECT_EQ(r.value().tsdb_chunk_points, 1024u);
  // Bounds: shards in [1, 256], chunk_points >= 1.
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_shards = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_shards = 257\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_chunk_points = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_shards = many\n").ok());
}

TEST(PipelineConfigFile, ShardInboxToggle) {
  // The enrichment pool derives its sharded inbox from the topology
  // (fan-in lanes and more than one thread), so no key selects it.
  for (const char* text :
       {"[analytics]\nshard_inbox = false\n", "[analytics]\nshard_inbox = true\n"}) {
    const auto r = pipeline_config_from_text(text);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("unknown key 'analytics.shard_inbox'"), std::string::npos)
        << r.error();
  }
}

TEST(PipelineConfigFile, LinkMeterKeys) {
  const auto r = pipeline_config_from_text("[meter]\nenabled = false\nwindow_s = 5\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_FALSE(r.value().enable_link_meter);
  EXPECT_EQ(r.value().link_meter_window.ns, Duration::from_sec(5).ns);
}

TEST(PipelineConfigFile, BusBatchKeys) {
  const auto r = pipeline_config_from_text("[bus]\nbatch = 128\nbatch_linger_s = 0.02\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().bus_batch_size, 128u);
  EXPECT_EQ(r.value().bus_batch_linger.ns, Duration::from_sec(0.02).ns);
  // batch = 1 is the un-batched compatibility mode, not an error.
  const auto one = pipeline_config_from_text("[bus]\nbatch = 1\n");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().bus_batch_size, 1u);
  // batch = 0 would silently discard every sample: rejected.
  EXPECT_FALSE(pipeline_config_from_text("[bus]\nbatch = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[bus]\nbatch = lots\n").ok());
}

TEST(PipelineConfigFile, InflowRttKeys) {
  const auto r = pipeline_config_from_text(
      "[flow]\n"
      "inflow_rtt = true\n"
      "ts_ring_entries = 16\n"
      "inflow_min_interval_us = 5000\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().inflow_rtt);
  EXPECT_EQ(r.value().ts_ring_entries, 16u);
  EXPECT_EQ(r.value().inflow_min_interval_us, 5'000u);

  // Defaults: the kernel is off, ring 8, 10 ms rate limit.
  const auto d = pipeline_config_from_text("");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d.value().inflow_rtt);
  EXPECT_EQ(d.value().ts_ring_entries, 8u);
  EXPECT_EQ(d.value().inflow_min_interval_us, 10'000u);
}

TEST(PipelineConfigFile, InflowRttBounds) {
  // Ring entries must be a power of two in [2, 64] (ring indexing masks).
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 1\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 3\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 48\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 128\n").ok());
  const auto err = pipeline_config_from_text("[flow]\nts_ring_entries = 3\n");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.error().find("ts_ring_entries"), std::string::npos);
  // The rate-limit interval is capped at one minute.
  EXPECT_FALSE(
      pipeline_config_from_text("[flow]\ninflow_min_interval_us = 60000001\n").ok());
  EXPECT_TRUE(pipeline_config_from_text("[flow]\ninflow_min_interval_us = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\ninflow_rtt = maybe\n").ok());
}

TEST(PipelineConfigFile, WorkerLoopKeys) {
  const auto r = pipeline_config_from_text("[flow]\nprefetch_depth = 2\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().worker_prefetch_depth, 2u);

  // Default lookahead 1.
  const auto d = pipeline_config_from_text("");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().worker_prefetch_depth, 1u);

  // Depth 0 (prefetch off) and 4 (the cap) are the limit cases, accepted.
  EXPECT_TRUE(pipeline_config_from_text("[flow]\nprefetch_depth = 0\n").ok());
  EXPECT_TRUE(pipeline_config_from_text("[flow]\nprefetch_depth = 4\n").ok());
  const auto deep = pipeline_config_from_text("[flow]\nprefetch_depth = 5\n");
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.error().find("prefetch_depth"), std::string::npos);

  // The vector lane loop is the only worker loop: no key selects it.
  for (const char* text : {"[flow]\nvector_loop = false\n", "[flow]\nvector_loop = true\n"}) {
    const auto vl = pipeline_config_from_text(text);
    ASSERT_FALSE(vl.ok());
    EXPECT_NE(vl.error().find("unknown key 'flow.vector_loop'"), std::string::npos)
        << vl.error();
  }
}

TEST(PipelineConfigFile, ProbeWindowKey) {
  const auto r = pipeline_config_from_text("[flow]\nprobe_window = 64\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().flow_probe_window, 64u);

  // Must be a power of two >= 16 (whole 16-slot probe groups)...
  const auto odd = pipeline_config_from_text("[flow]\nprobe_window = 48\n");
  ASSERT_FALSE(odd.ok());
  EXPECT_NE(odd.error().find("power of two"), std::string::npos);
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nprobe_window = 8\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nprobe_window = 0\n").ok());

  // ...and must fit inside the (rounded) table capacity.
  const auto wide =
      pipeline_config_from_text("[flow]\ntable_capacity = 100\nprobe_window = 256\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.error().find("exceeds flow.table_capacity"), std::string::npos);
  EXPECT_NE(wide.error().find("rounded to 128"), std::string::npos);
  // Window equal to the rounded capacity is the limit case, accepted.
  EXPECT_TRUE(
      pipeline_config_from_text("[flow]\ntable_capacity = 100\nprobe_window = 128\n").ok());
}

TEST(PipelineConfigFile, SymmetricRssToggle) {
  const auto sym = pipeline_config_from_text("[capture]\nsymmetric_rss = true\n");
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(sym.value().rss_key, symmetric_rss_key());
  const auto asym = pipeline_config_from_text("[capture]\nsymmetric_rss = false\n");
  ASSERT_TRUE(asym.ok());
  EXPECT_EQ(asym.value().rss_key, default_rss_key());
}

TEST(PipelineConfigFile, LoadsFromFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ruru_cfg_" + std::to_string(::getpid()) + ".conf"))
          .string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("[capture]\nqueues = 2\n", f);
  std::fclose(f);
  const auto r = pipeline_config_from_file(path);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_queues, 2);
  std::remove(path.c_str());

  EXPECT_FALSE(pipeline_config_from_file("/no/such/ruru.conf").ok());
}

TEST(PipelineConfigFile, EmptyTextYieldsDefaults) {
  const auto r = pipeline_config_from_text("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_queues, PipelineConfig{}.num_queues);
}

TEST(PipelineConfigFile, TopologyKeys) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 4\n"
      "[analytics]\n"
      "threads = 2\n"
      "[topology]\n"
      "pin_cpus = 0, 1, -1, 3, 4, 5\n");
  ASSERT_TRUE(r.ok()) << r.error();
  // Workers and RX queues are 1:1 (one flow table per queue).
  EXPECT_EQ(r.value().num_queues, 4);
  EXPECT_EQ(r.value().enrichment_threads, 2u);
  EXPECT_EQ(r.value().pin_cpus, (std::vector<int>{0, 1, -1, 3, 4, 5}));
}

TEST(PipelineConfigFile, PinListMayCoverWorkersOnly) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 2\n"
      "[analytics]\n"
      "threads = 2\n"
      "[topology]\n"
      "pin_cpus = 0,1\n");  // workers pinned, enrichers roam
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().pin_cpus.size(), 2u);
}

TEST(PipelineConfigFile, PinListLengthMismatchRejected) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 4\n"
      "[analytics]\n"
      "threads = 2\n"
      "[topology]\n"
      "pin_cpus = 0,1,2\n");  // neither 4 (workers) nor 6 (workers+enrichers)
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("pin_cpus"), std::string::npos);
}

TEST(PipelineConfigFile, PinListBadEntriesRejected) {
  EXPECT_FALSE(pipeline_config_from_text("[topology]\npin_cpus = 0,,1\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[topology]\npin_cpus = 0,banana\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[topology]\npin_cpus = 0,2000000\n").ok());
}

TEST(PipelineConfigFile, TraceKeys) {
  const auto r = pipeline_config_from_text(
      "[obs]\n"
      "trace_sample_n = 64\n"
      "trace_ring = 8192\n"
      "trace_json_path = /tmp/ruru_trace.json\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().trace_sample_n, 64u);
  EXPECT_EQ(r.value().trace_ring_capacity, 8192u);
  EXPECT_EQ(r.value().trace_json_path, "/tmp/ruru_trace.json");
  // Defaults: tracing off.
  EXPECT_EQ(PipelineConfig{}.trace_sample_n, 0u);
  // A zero-slot ring with sampling on cannot hold anything: rejected.
  EXPECT_FALSE(
      pipeline_config_from_text("[obs]\ntrace_sample_n = 64\ntrace_ring = 0\n").ok());
  // trace_ring = 0 with tracing off is harmless (never allocated).
  EXPECT_TRUE(pipeline_config_from_text("[obs]\ntrace_ring = 0\n").ok());
}

TEST(PipelineConfigFile, WatchdogKeys) {
  const auto r = pipeline_config_from_text(
      "[obs]\n"
      "watchdog = true\n"
      "watchdog_interval_s = 0.5\n"
      "watchdog_stall_s = 10\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().watchdog_enabled);
  EXPECT_EQ(r.value().watchdog_interval.ns, Duration::from_sec(0.5).ns);
  EXPECT_EQ(r.value().watchdog_stall_after.ns, Duration::from_sec(10.0).ns);
  EXPECT_FALSE(PipelineConfig{}.watchdog_enabled);
  // Non-positive timings with the watchdog armed: rejected.
  EXPECT_FALSE(
      pipeline_config_from_text("[obs]\nwatchdog = on\nwatchdog_interval_s = 0\n").ok());
  EXPECT_FALSE(
      pipeline_config_from_text("[obs]\nwatchdog = on\nwatchdog_stall_s = -1\n").ok());
  // The same zeros with the watchdog off never run: accepted.
  EXPECT_TRUE(pipeline_config_from_text("[obs]\nwatchdog_interval_s = 0\n").ok());
}

TEST(PipelineConfigFile, KeyCatalogue) {
  std::vector<std::string> names;
  for (const ConfigKey& key : config_keys()) names.emplace_back(key.name);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected = {
      "analytics.threads",
      "bus.batch",
      "bus.batch_linger_s",
      "bus.hwm",
      "capture.inject_burst",
      "capture.mbuf_size",
      "capture.mempool",
      "capture.queue_depth",
      "capture.queues",
      "capture.symmetric_rss",
      "detectors.conncount",
      "detectors.ewma",
      "detectors.ewma_k_sigma",
      "detectors.periodic",
      "detectors.periodic_bucket_s",
      "detectors.periodic_period_s",
      "detectors.synflood",
      "detectors.synflood_min_syns",
      "detectors.synflood_window_s",
      "flow.fast_path",
      "flow.inflow_min_interval_us",
      "flow.inflow_rtt",
      "flow.prefetch_depth",
      "flow.probe_window",
      "flow.stale_after_s",
      "flow.table_capacity",
      "flow.ts_ring_entries",
      "meter.enabled",
      "meter.window_s",
      "obs.enabled",
      "obs.interval_s",
      "obs.json_path",
      "obs.prometheus_path",
      "obs.self_ingest",
      "obs.trace_json_path",
      "obs.trace_ring",
      "obs.trace_sample_n",
      "obs.transit_sample_every",
      "obs.watchdog",
      "obs.watchdog_interval_s",
      "obs.watchdog_stall_s",
      "storage.downsample_stat",
      "storage.downsample_window_s",
      "storage.per_sample",
      "storage.retention_s",
      "storage.tsdb_chunk_points",
      "storage.tsdb_shards",
      "topology.pin_cpus",
  };
  EXPECT_EQ(names, expected);

  // No alias keys: each row writes a field no other row writes.
  const PipelineConfig defaults;
  std::set<const void*> fields;
  for (const ConfigKey& key : config_keys()) {
    EXPECT_TRUE(fields.insert(key.field.at(defaults)).second) << key.name;
  }

  // Every bounded key with its [min, max] as an operator writes them
  // (ewma_k_sigma's range is (0, inf): its minimum is the smallest double
  // above 0).  Both limits are accepted and land in the field; one step
  // past either is rejected, naming the key and the value.
  const std::map<std::string, std::pair<std::string, std::string>> bounds = {
      {"analytics.threads", {"1", "18446744073709551615"}},
      {"bus.batch", {"1", "18446744073709551615"}},
      {"bus.hwm", {"0", "2147483648"}},
      {"capture.inject_burst", {"1", "18446744073709551615"}},
      {"capture.mbuf_size", {"0", "18446744073709551615"}},
      {"capture.mempool", {"0", "18446744073709551615"}},
      {"capture.queue_depth", {"0", "2147483648"}},
      {"capture.queues", {"1", "65535"}},
      {"detectors.ewma_k_sigma", {"4.9406564584124654e-324", "1.7976931348623157e+308"}},
      {"detectors.synflood_min_syns", {"0", "18446744073709551615"}},
      {"flow.inflow_min_interval_us", {"0", "60000000"}},
      {"flow.prefetch_depth", {"0", "4"}},
      {"flow.probe_window", {"16", "2147483648"}},
      {"flow.table_capacity", {"0", "2147483648"}},
      {"flow.ts_ring_entries", {"2", "64"}},
      {"obs.trace_ring", {"0", "2147483648"}},
      {"obs.trace_sample_n", {"0", "4294967295"}},
      {"obs.transit_sample_every", {"0", "4294967295"}},
      {"storage.tsdb_chunk_points", {"1", "4294967295"}},
      {"storage.tsdb_shards", {"1", "256"}},
  };
  std::set<std::string> bounded;
  for (const ConfigKey& key : config_keys()) {
    if (key.field.number != nullptr) bounded.insert(key.name);
  }
  std::set<std::string> pinned;
  for (const auto& [name, limits] : bounds) pinned.insert(name);
  EXPECT_EQ(bounded, pinned);

  // One step from `limit` towards `dir` (-1 or +1), as text.
  const auto step = [](const std::string& limit, int dir) -> std::string {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (limit.find_first_not_of("0123456789") == std::string::npos) {
      const std::uint64_t v = std::stoull(limit);
      if (dir < 0) return v == 0 ? "-1" : std::to_string(v - 1);
      return v == kMax ? "18446744073709551616" : std::to_string(v + 1);
    }
    const double inf = std::numeric_limits<double>::infinity();
    return exact(std::nextafter(std::strtod(limit.c_str(), nullptr), dir * inf));
  };
  for (const auto& [name, limits] : bounds) {
    SCOPED_TRACE(name);
    const ConfigKey* key = nullptr;
    for (const ConfigKey& k : config_keys()) {
      if (name == k.name) key = &k;
    }
    ASSERT_NE(key, nullptr);
    // The probe window must fit the table: the widest window needs the
    // largest table, the smallest table the narrowest window.
    std::string context;
    if (name == "flow.probe_window") context = "[flow]\ntable_capacity = 2147483648\n";
    if (name == "flow.table_capacity") context = "[flow]\nprobe_window = 16\n";
    for (const std::string& limit : {limits.first, limits.second}) {
      const auto r = pipeline_config_from_text(context + key_line(name, limit));
      ASSERT_TRUE(r.ok()) << name << " = " << limit << ": " << r.error();
      EXPECT_EQ(key->field.number(r.value()), std::strtod(limit.c_str(), nullptr));
    }
    expect_rejected_naming(key_line(name, step(limits.first, -1)), name, step(limits.first, -1));
    expect_rejected_naming(key_line(name, step(limits.second, 1)), name, step(limits.second, 1));
  }
}

// Ring-backed sizes round up to a power of two; past rte_ring's 2^31
// limit that rounding overflowed and spun forever.
void expect_huge_size_rejected(std::string_view key) {
  expect_rejected_naming(key_line(key, "9223372036854775809"), key, "9223372036854775809");
  expect_rejected_naming(key_line(key, "2147483649"), key, "2147483649");
  EXPECT_TRUE(pipeline_config_from_text(key_line(key, "2147483648")).ok()) << key;
}

TEST(PipelineConfigFile, HugeQueueDepthRejected) {
  expect_huge_size_rejected("capture.queue_depth");
}

TEST(PipelineConfigFile, HugeTableCapacityRejected) {
  expect_huge_size_rejected("flow.table_capacity");
}

TEST(PipelineConfigFile, HugeBusHwmRejected) { expect_huge_size_rejected("bus.hwm"); }

TEST(PipelineConfigFile, HugeTraceRingRejected) { expect_huge_size_rejected("obs.trace_ring"); }

TEST(PipelineConfigFile, NoAliasTopologyKeys) {
  // Workers are set by capture.queues and enrichers by analytics.threads
  // alone: a second key for the same field would silently override it.
  for (const char* alias : {"workers", "enrichers"}) {
    const auto r = pipeline_config_from_text(
        "[capture]\nqueues = 8\n[analytics]\nthreads = 4\n[topology]\n" + std::string(alias) +
        " = 2\n");
    ASSERT_FALSE(r.ok()) << alias;
    EXPECT_NE(r.error().find("unknown key 'topology." + std::string(alias) + "'"),
              std::string::npos)
        << r.error();
  }
}

TEST(PipelineConfigFile, EwmaKSigmaMustBeFinitePositive) {
  // NaN never crosses the threshold (the detector is silently off); a
  // threshold <= 0 alerts on every sample after warmup.
  for (const char* bad : {"nan", "inf", "-inf", "-3", "0"}) {
    expect_rejected_naming("[detectors]\newma_k_sigma = " + std::string(bad) + "\n",
                           "detectors.ewma_k_sigma", bad);
  }
  const auto r = pipeline_config_from_text("[detectors]\newma_k_sigma = 2.5\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().ewma.k_sigma, 2.5);
}

}  // namespace
}  // namespace ruru
