// End-to-end checks that the telemetry layer observes a real run: the
// summary is a view over the registry, histograms fill when metrics are
// on, the self-ingest exporter lands "ruru.self.*" series in the TSDB,
// and the Prometheus file appears on disk.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "capture/scenarios.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"
#include "obs/exporters.hpp"

namespace ruru {
namespace {

World scenario_world() {
  std::vector<SiteSpec> specs;
  auto convert = [&](const scenarios::Site& s) {
    SiteSpec spec;
    spec.city = s.city;
    spec.country = s.country;
    spec.latitude = s.latitude;
    spec.longitude = s.longitude;
    spec.asn = s.asn;
    spec.block_start = s.block.value();
    spec.block_size = 256;
    specs.push_back(std::move(spec));
  };
  for (const auto& s : scenarios::nz_sites()) convert(s);
  for (const auto& s : scenarios::world_sites()) convert(s);
  auto w = build_world(specs);
  EXPECT_TRUE(w.ok()) << w.error();
  return std::move(w).value();
}

class PipelineMetricsTest : public ::testing::Test {
 protected:
  PipelineMetricsTest() : world_(scenario_world()) {}

  PipelineConfig metrics_config() {
    PipelineConfig cfg;
    cfg.num_queues = 2;
    cfg.enrichment_threads = 2;
    cfg.flow_table_capacity = 1 << 12;
    cfg.metrics_enabled = true;
    cfg.metrics_interval = Duration::from_ms(50);
    cfg.transit_sample_every = 1;  // every bus message hits the transit hist
    return cfg;
  }

  void replay(RuruPipeline& pipeline) {
    auto model = scenarios::transpacific(/*seed=*/21, /*flows_per_sec=*/200.0,
                                         Duration::from_sec(3.0));
    pipeline.start();
    replay_scenario(pipeline, model);
    pipeline.finish();
  }

  World world_;
};

/// Every NIC, worker and tracker cell of the summary against its
/// registry counter, by exported name.  Listed by hand rather than read
/// from the field tables, so a table row with the wrong name or cell
/// shows up here.
void expect_stat_cells_match(const PipelineSummary& s, const obs::MetricsSnapshot& snap) {
  const auto c = [&snap](const char* name) { return snap.counter_or(name); };
  EXPECT_EQ(s.nic.rx_packets, c("nic.rx_packets"));
  EXPECT_EQ(s.nic.rx_bytes, c("nic.rx_bytes"));
  EXPECT_EQ(s.nic.dropped_no_mbuf, c("nic.dropped_no_mbuf"));
  EXPECT_EQ(s.nic.dropped_queue_full, c("nic.dropped_queue_full"));
  EXPECT_EQ(s.nic.dropped_oversize, c("nic.dropped_oversize"));

  EXPECT_EQ(s.workers.polls, c("worker.polls"));
  EXPECT_EQ(s.workers.empty_polls, c("worker.empty_polls"));
  EXPECT_EQ(s.workers.packets, c("worker.packets"));
  EXPECT_EQ(s.workers.bytes, c("worker.bytes"));
  EXPECT_EQ(s.workers.parse_status[0], c("worker.parse_ok"));
  EXPECT_EQ(s.workers.parse_status[1], c("worker.parse_not_ip"));
  EXPECT_EQ(s.workers.parse_status[2], c("worker.parse_not_tcp"));
  EXPECT_EQ(s.workers.parse_status[3], c("worker.parse_fragment"));
  EXPECT_EQ(s.workers.parse_status[4], c("worker.parse_malformed"));
  EXPECT_EQ(s.workers.fast_path_skips, c("worker.fast_path_skips"));
  EXPECT_EQ(s.workers.inflow_consumed, c("worker.inflow_consumed"));
  EXPECT_EQ(s.workers.batch_flushes, c("worker.batch_flushes"));
  EXPECT_EQ(s.workers.batched_samples, c("worker.batched_samples"));
  EXPECT_EQ(s.workers.lane_skip, c("worker.lane_skip"));
  EXPECT_EQ(s.workers.lane_established, c("worker.lane_established"));
  EXPECT_EQ(s.workers.lane_need_parse, c("worker.lane_need_parse"));
  EXPECT_EQ(s.workers.lane_revalidated, c("worker.lane_revalidated"));
  EXPECT_EQ(s.workers.classify_reprobes, c("worker.classify_reprobes"));

  EXPECT_EQ(s.tracker.syn_seen, c("tracker.syn_seen"));
  EXPECT_EQ(s.tracker.syn_retransmissions, c("tracker.syn_retransmissions"));
  EXPECT_EQ(s.tracker.synack_seen, c("tracker.synack_seen"));
  EXPECT_EQ(s.tracker.synack_unmatched, c("tracker.synack_unmatched"));
  EXPECT_EQ(s.tracker.ack_matched, c("tracker.ack_matched"));
  EXPECT_EQ(s.tracker.rst_seen, c("tracker.rst_seen"));
  EXPECT_EQ(s.tracker.samples_emitted, c("tracker.samples_emitted"));
  EXPECT_EQ(s.tracker.table_drops, c("tracker.table_drops"));
}

TEST_F(PipelineMetricsTest, SummaryIsAViewOverTheRegistry) {
  for (const bool inflow : {false, true}) {
    SCOPED_TRACE(inflow ? "inflow_rtt on" : "inflow_rtt off");
    PipelineConfig cfg = metrics_config();
    cfg.inflow_rtt = inflow;
    RuruPipeline pipeline(cfg, world_.geo, world_.as);
    replay(pipeline);

    const PipelineSummary summary = pipeline.summary();
    const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});

    EXPECT_GT(summary.nic.rx_packets, 0u);
    expect_stat_cells_match(summary, snap);
    EXPECT_EQ(summary.enriched, snap.counter_or("enrich.processed"));
    EXPECT_EQ(summary.tsdb_points, snap.counter_or("tsdb.points"));

    // The worker conservation law holds on the summary itself.
    std::uint64_t classified = 0;
    for (const auto& c : summary.workers.parse_status) classified += c;
    EXPECT_EQ(summary.workers.packets,
              classified + summary.workers.fast_path_skips + summary.workers.inflow_consumed);
    if (inflow) EXPECT_GT(summary.workers.inflow_consumed, 0u);
  }
}

// The exported catalog, pinned: external readers (the end-to-end
// benchmark harness, ruru.self.* dashboards) look metrics up by name, so
// a rename or a dropped registration must show up here.  Configuration:
// 2 queues, metrics on, in-flow RTT on, fast path on.
TEST_F(PipelineMetricsTest, MetricNamesMatchTheCatalog) {
  PipelineConfig cfg = metrics_config();
  cfg.inflow_rtt = true;
  cfg.worker_fast_path = true;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  // start() runs the enrichment threads, which register their histogram
  // shards (bus.queue_wait_ns, enrich.batch_ns, pipeline.transit_ns).
  pipeline.start();
  pipeline.finish();

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  const auto sorted_names = [](const auto& entries) {
    std::vector<std::string> out;
    for (const auto& [name, value] : entries) out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::string> counters = {
      "alerts.raised",
      "bus.alerts_published",
      "bus.delivered",
      "bus.dropped",
      "bus.published",
      "enrich.cache_hits",
      "enrich.cache_misses",
      "enrich.decode_failures",
      "enrich.processed",
      "enrich.unlocated",
      "flow.erases",
      "flow.evictions_stale",
      "flow.hits",
      "flow.inflow_rate_limited",
      "flow.inflow_samples",
      "flow.insert_failures",
      "flow.inserts",
      "flow.one_sided_samples",
      "flow.sweep_evictions",
      "flow.tag_mismatches",
      "flow.ts_matches",
      "flow.ts_ring_evictions",
      "flow.ts_wraps",
      "health.dumps",
      "health.stalls",
      "mempool.alloc_failures",
      "nic.dropped_no_mbuf",
      "nic.dropped_oversize",
      "nic.dropped_queue_full",
      "nic.rx_bytes",
      "nic.rx_packets",
      "trace.events",
      "tracker.ack_matched",
      "tracker.rst_seen",
      "tracker.samples_emitted",
      "tracker.syn_retransmissions",
      "tracker.syn_seen",
      "tracker.synack_seen",
      "tracker.synack_unmatched",
      "tracker.table_drops",
      "tsdb.points",
      "worker.batch_flushes",
      "worker.batched_samples",
      "worker.bytes",
      "worker.classify_reprobes",
      "worker.empty_polls",
      "worker.fast_path_skips",
      "worker.inflow_consumed",
      "worker.lane_established",
      "worker.lane_need_parse",
      "worker.lane_revalidated",
      "worker.lane_skip",
      "worker.packets",
      "worker.parse_fragment",
      "worker.parse_malformed",
      "worker.parse_not_ip",
      "worker.parse_not_tcp",
      "worker.parse_ok",
      "worker.polls",
  };
  const std::vector<std::string> gauges = {
      "bus.pending",
      "flow.entries",
      "nic.queue_occupancy.q0",
      "nic.queue_occupancy.q1",
  };
  const std::vector<std::string> histograms = {
      "bus.queue_wait_ns",
      "enrich.batch_ns",
      "flow.group_occupancy",
      "flow.inflow_rtt_ns",
      "flow.one_sided_delta_ns",
      "flow.probe_groups",
      "pipeline.transit_ns",
      "tsdb.write_ns",
      "worker.batch_fill",
      "worker.burst_candidates",
      "worker.candidate_run_len",
      "worker.poll_batch",
  };
  EXPECT_EQ(sorted_names(snap.counters), counters);
  EXPECT_EQ(sorted_names(snap.gauges), gauges);
  EXPECT_EQ(sorted_names(snap.histograms), histograms);
  EXPECT_EQ(counters.size(), 59u);
  EXPECT_EQ(gauges.size(), 4u);
  EXPECT_EQ(histograms.size(), 12u);
}

TEST_F(PipelineMetricsTest, HotPathHistogramsFillWhenEnabled) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  const obs::HistogramStats* poll = snap.histogram("worker.poll_batch");
  ASSERT_NE(poll, nullptr);
  EXPECT_GT(poll->count, 0u);
  EXPECT_GE(poll->min, 1);  // empty polls are not recorded

  const obs::HistogramStats* transit = snap.histogram("pipeline.transit_ns");
  ASSERT_NE(transit, nullptr);
  EXPECT_GT(transit->count, 0u);
  EXPECT_GT(transit->max, 0);  // wall-clock anchored: strictly positive

  const obs::HistogramStats* wait = snap.histogram("bus.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count, 0u);

  const obs::HistogramStats* tsdb = snap.histogram("tsdb.write_ns");
  ASSERT_NE(tsdb, nullptr);
  EXPECT_GT(tsdb->count, 0u);
}

TEST_F(PipelineMetricsTest, HistogramsStayEmptyWhenDisabled) {
  PipelineConfig cfg = metrics_config();
  cfg.metrics_enabled = false;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  replay(pipeline);

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  // Counters still work (the summary depends on them)...
  EXPECT_GT(snap.counter_or("nic.rx_packets"), 0u);
  // ...but no histogram is even registered: zero hot-path timing cost.
  EXPECT_EQ(snap.histogram("worker.poll_batch"), nullptr);
  EXPECT_EQ(snap.histogram("pipeline.transit_ns"), nullptr);
}

TEST_F(PipelineMetricsTest, SelfIngestLandsSeriesInTheTsdb) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);

  // The stop() final tick guarantees at least one export even if the
  // run was shorter than the snapshot interval.
  const Timestamp t0;
  const Timestamp t1 = Timestamp::from_sec(1e9);
  const auto rx = pipeline.tsdb().aggregate("ruru.self.nic.rx_packets",
                                            TagSet{}.add("stat", "total"), t0, t1);
  ASSERT_GT(rx.count, 0u);
  EXPECT_DOUBLE_EQ(rx.max, static_cast<double>(pipeline.summary().nic.rx_packets));

  const auto transit = pipeline.tsdb().aggregate("ruru.self.pipeline.transit_ns",
                                                 TagSet{}.add("stat", "p95"), t0, t1);
  ASSERT_GT(transit.count, 0u);
  EXPECT_GT(transit.max, 0.0);
}

TEST_F(PipelineMetricsTest, InflowCountersAndHistogramExport) {
  const std::string path = ::testing::TempDir() + "ruru_inflow_metrics_test.prom";
  std::remove(path.c_str());

  PipelineConfig cfg = metrics_config();
  cfg.inflow_rtt = true;
  cfg.metrics_prometheus_path = path;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  replay(pipeline);

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  EXPECT_GT(snap.counter_or("flow.ts_matches"), 0u);
  EXPECT_GT(snap.counter_or("flow.inflow_samples"), 0u);
  EXPECT_GT(snap.counter_or("worker.inflow_consumed"), 0u);
  // Eviction/wrap counters exist even when this scenario never trips them.
  EXPECT_NE(snap.counter("flow.ts_ring_evictions"), nullptr);
  EXPECT_NE(snap.counter("flow.ts_wraps"), nullptr);

  const obs::HistogramStats* rtt = snap.histogram("flow.inflow_rtt_ns");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count, 0u);
  EXPECT_GT(rtt->min, 0);

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "no prometheus file at " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE ruru_flow_ts_matches counter\n"), std::string::npos);
  EXPECT_NE(text.find("ruru_flow_inflow_rtt_ns_count"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(PipelineMetricsTest, InflowHistogramAbsentWhenFeatureOff) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);
  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  EXPECT_EQ(snap.counter_or("flow.ts_matches"), 0u);
  EXPECT_EQ(snap.histogram("flow.inflow_rtt_ns"), nullptr);
}

TEST_F(PipelineMetricsTest, PrometheusFileIsWrittenWhenPathSet) {
  const std::string path = ::testing::TempDir() + "ruru_metrics_test.prom";
  std::remove(path.c_str());

  PipelineConfig cfg = metrics_config();
  cfg.metrics_prometheus_path = path;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  replay(pipeline);

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "no prometheus file at " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE ruru_nic_rx_packets counter\n"), std::string::npos);
  EXPECT_NE(text.find("ruru_pipeline_transit_ns_count"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ruru
