#pragma once
// RuruPipeline — the whole Figure-2 system, wired.
//
//   inject_burst()  ->  SimNic (symmetric RSS, N queues)
//                   ->  per-queue poll workers (handshake tracking, Figure 1)
//                   ->  bus (topic "ruru.latency", HWM drop)
//                   ->  enrichment pool (geo/AS lookup, IP removal)
//                   ->  sinks: TSDB, city/AS aggregators, arc aggregator,
//                       anomaly detectors
//
// Usage: construct, start(), inject_burst() frames (one producer
// thread), finish().  After finish() the TSDB, aggregators and alert
// log hold the run's results.  See core/replay.hpp for feeding a
// TrafficModel or a pcap file.

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "analytics/aggregator.hpp"
#include "analytics/pool.hpp"
#include "anomaly/alert.hpp"
#include "anomaly/conncount_detector.hpp"
#include "anomaly/ewma_detector.hpp"
#include "anomaly/periodic_detector.hpp"
#include "anomaly/synflood_detector.hpp"
#include "capture/traffic_model.hpp"
#include "driver/eal.hpp"
#include "driver/nic.hpp"
#include "flow/link_meter.hpp"
#include "flow/worker.hpp"
#include "geo/as_db.hpp"
#include "geo/geo_db.hpp"
#include "msg/pubsub.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot_timer.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "tsdb/query.hpp"
#include "util/result.hpp"
#include "viz/arc_aggregator.hpp"

namespace ruru {

struct PipelineConfig {
  // --- capture / DPDK stage ---
  std::uint16_t num_queues = 4;
  std::size_t queue_depth = 8192;
  std::size_t mempool_size = 1 << 16;
  std::size_t mbuf_size = 2048;
  RssKey rss_key = symmetric_rss_key();
  /// Frames a replayer accumulates before one inject_burst() call (one
  /// SpscRing release-store per queue per burst).
  static constexpr std::size_t inject_burst_size = 32;

  // --- flow tracking ---
  std::size_t flow_table_capacity = 1 << 16;  ///< per queue
  Duration flow_stale_after = Duration::from_sec(30.0);
  /// Slots probed per flow-table lookup (a power of two ≥ 16, i.e. whole
  /// 16-slot probe groups). Larger windows tolerate heavier hash
  /// collisions at the cost of longer worst-case probes.
  std::size_t flow_probe_window = 32;
  /// Worker pre-parse fast path: skip full parsing of data segments on
  /// untracked flows (see QueueWorker::set_fast_path).
  bool worker_fast_path = true;
  /// Continuous in-flow RTT: match TCP-timestamp echoes on established
  /// flows in the worker fast path (pping's algorithm against per-flow
  /// rings in the flow table).  Off = handshake-only tracking, wire
  /// output bit-identical to the pre-feature pipeline.
  bool inflow_rtt = false;
  /// Per-flow, per-direction timestamp ring entries (power of two,
  /// 2..64).  Sizes the flow table's cold ring arrays when inflow_rtt
  /// is on.
  std::size_t ts_ring_entries = 8;
  /// Per-flow-direction emission floor: at most one in-flow sample per
  /// this many microseconds ("first match per RTT window").  0 emits
  /// every match.
  std::uint64_t inflow_min_interval_us = 10'000;
  /// Rx-loop mbuf prefetch lookahead in the worker poll loop (0 disables,
  /// max 4).  A memory-timing knob only — never changes semantics.
  std::size_t worker_prefetch_depth = 1;

  // --- multi-core topology ---
  /// CPU pins for the pipeline's threads (best-effort Linux affinity;
  /// see LcoreLauncher): workers in queue order, then enrichment
  /// threads (lengths: check_pin_list).  Empty = every thread runs
  /// unpinned; kNoCpuPin (-1) leaves an individual slot unpinned.
  std::vector<int> pin_cpus;

  // --- bus / analytics ---
  std::size_t bus_hwm = 1 << 16;
  std::size_t enrichment_threads = 2;
  /// Samples packed per bus message. Workers accumulate completions and
  /// publish one batched frame (amortized zero-allocation publish path);
  /// 1 reproduces the one-message-per-sample behaviour. Clamped to
  /// [1, kMaxLatencyBatch].
  std::size_t bus_batch_size = 32;
  /// Max capture-time age of a buffered sample before a partial batch is
  /// flushed (0 = flush only on batch-full or an empty poll), so
  /// low-rate traffic is not delayed behind the batch size.
  Duration bus_batch_linger = Duration::from_ms(5);

  // --- anomaly modules ---
  bool enable_synflood = true;
  SynFloodConfig synflood;
  bool enable_conncount = true;
  ConnCountConfig conncount;
  bool enable_ewma = true;
  EwmaConfig ewma;
  bool enable_periodic = false;  ///< for glitch-hunting runs
  PeriodicConfig periodic;

  // --- storage ---
  bool tsdb_store_samples = true;  ///< write per-sample points to the TSDB
  /// TSDB engine series shards (rounded to a power of two; ingest locks
  /// only the owning shard, so writers and queries don't serialize).
  std::size_t tsdb_shards = 8;
  /// Points per compressed chunk before it seals into an immutable,
  /// lock-free-readable block.
  std::uint32_t tsdb_chunk_points = 512;
  /// Long-term storage policy, applied at finish() (the InfluxDB
  /// continuous-query + retention pattern): when `downsample_window` is
  /// nonzero, every latency measurement is downsampled into
  /// "<name>_<stat>" series at that granularity; when
  /// `retention_horizon` is nonzero, raw points older than the horizon
  /// (relative to the newest sample) are then dropped.
  Duration downsample_window = Duration{0};
  std::string downsample_stat = "median";
  Duration retention_horizon = Duration{0};

  // --- link load metering ---
  bool enable_link_meter = true;
  Duration link_meter_window = Duration::from_sec(1.0);

  // --- observability / telemetry ---
  /// Stage counters and gauges are ALWAYS registered (callback metrics,
  /// zero data-path cost — the summary is a view over them).  This flag
  /// additionally attaches the hot-path latency histograms (poll batch
  /// sizes, bus queue wait, enrich latency, sampled end-to-end transit,
  /// TSDB write latency) and runs the periodic snapshot/export thread.
  bool metrics_enabled = false;
  /// Snapshot cadence of the exporter thread.
  Duration metrics_interval = Duration::from_sec(1.0);
  /// Record 1-in-N bus messages into the end-to-end transit histogram.
  std::uint32_t transit_sample_every = 16;
  /// Write "ruru.self.*" series into the pipeline's own TSDB each tick.
  bool metrics_self_ingest = true;
  /// When non-empty: rewrite this file with Prometheus text each tick.
  std::string metrics_prometheus_path;
  /// When non-empty: append one JSON line per tick to this file.
  std::string metrics_json_path;

  // --- flight-recorder tracing / watchdog ---
  /// 1-in-N packet-lifecycle sampling: flows whose RSS hash selects get
  /// a trace id at the NIC and their spans recorded at every stage
  /// (nic → worker → flow → bus → enrich → tsdb).  0 = tracing off; the
  /// hot path then carries no trace work at all (and with
  /// -DRURU_TRACE=0 the hooks are not even compiled).
  std::uint32_t trace_sample_n = 0;
  /// Events kept per stage ring (rounded up to a power of two).
  std::size_t trace_ring_capacity = 4096;
  /// When non-empty: finish() exports the flight record here as Chrome
  /// trace_event JSON (loadable in chrome://tracing / ui.perfetto.dev).
  std::string trace_json_path;
  /// Stall watchdog over the per-stage heartbeats (worker polls,
  /// enrichment drain, snapshot ticks, TSDB flushes).  On a stalled
  /// stage — or SIGUSR1 — it dumps the last trace events per ring and
  /// self-ingests a ruru.health.* metric.
  bool watchdog_enabled = false;
  Duration watchdog_interval = Duration::from_sec(1.0);
  Duration watchdog_stall_after = Duration::from_sec(5.0);
};

/// `pin_cpus` is empty, or lists one CPU per worker, or one per worker
/// and enrichment thread.  The config parser and RuruPipeline apply it.
[[nodiscard]] Status check_pin_list(const PipelineConfig& config);

struct PipelineSummary;

class RuruPipeline {
 public:
  /// `geo6` optional: IPv6 location table (not owned; must outlive the
  /// pipeline). Without it, v6 endpoints show as unlocated.
  RuruPipeline(PipelineConfig config, const GeoDatabase& geo, const AsDatabase& as,
               const Geo6Database* geo6 = nullptr);
  ~RuruPipeline();

  RuruPipeline(const RuruPipeline&) = delete;
  RuruPipeline& operator=(const RuruPipeline&) = delete;

  /// Register an extra consumer of enriched (anonymized) samples — the
  /// "additional functionality" extension point of §2 (e.g. a
  /// FilterChain, a custom exporter). Must be called before start();
  /// invoked from enrichment worker threads, so the sink must be
  /// thread-safe.
  void add_enriched_sink(std::function<void(const EnrichedSample&)> sink) {
    enrichment_->add_sink(std::move(sink));
  }

  /// Launch worker lcores and the enrichment pool.
  void start();

  /// RX a burst of frames (single producer thread; the only way into
  /// the NIC).  Every frame is metered on the link before the NIC sees
  /// it; see SimNic::inject_burst for staging and drop accounting.
  /// Returns frames queued; `queued` (optional, frames.size() slots)
  /// receives per-frame success.
  std::size_t inject_burst(std::span<const RxFrame> frames, bool* queued = nullptr);

  /// Drain everything and stop all threads. Idempotent. After this the
  /// result accessors below are stable.
  void finish();

  /// Subscribe to pipeline topics on the internal bus. Useful topics:
  /// kLatencyTopic ("ruru.latency", binary samples) and kAlertTopic
  /// ("ruru.alerts", JSON alerts). Subscribe before start() to see
  /// everything.
  [[nodiscard]] std::shared_ptr<Subscription> subscribe(std::string topic_prefix,
                                                        std::size_t hwm = 0) {
    return bus_.subscribe(std::move(topic_prefix), hwm);
  }

  // --- results (stable after finish(); live-but-racy before) ---
  [[nodiscard]] TsdbEngine& tsdb() { return tsdb_; }
  [[nodiscard]] LatencyAggregator& city_pairs() { return city_pairs_; }
  [[nodiscard]] LatencyAggregator& as_pairs() { return as_pairs_; }
  [[nodiscard]] ArcAggregator& arcs() { return arcs_; }
  [[nodiscard]] AlertLog& alerts() { return alerts_; }
  [[nodiscard]] const PeriodicSpikeDetector* periodic_detector() const {
    return periodic_ ? periodic_.get() : nullptr;
  }

  [[nodiscard]] const SimNic& nic() const { return *nic_; }
  /// Worker lcore launcher (pin success/failure counters live here).
  [[nodiscard]] const LcoreLauncher& lcores() const { return lcores_; }
  [[nodiscard]] const EnrichmentPool& enrichment() const { return *enrichment_; }
  [[nodiscard]] const LinkMeter& link_meter() const { return link_meter_; }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] PipelineSummary summary() const;

  /// The live registry: every stage counter/gauge (always) plus latency
  /// histograms (when config.metrics_enabled). Snapshot any time.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// The flight recorder (rings + exporter).  Snapshot/export any time;
  /// inert when config.trace_sample_n == 0.
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }
  /// The stall watchdog; null unless config.watchdog_enabled.
  [[nodiscard]] obs::Watchdog* watchdog() { return watchdog_.get(); }

 private:
  void wire_sinks();
  void register_metrics();

  PipelineConfig config_;
  const GeoDatabase& geo_;
  const AsDatabase& as_;

  /// Declared before the stages: workers/enrichers hold TraceHandles
  /// pointing into the tracer's rings, so it must outlive them.
  obs::Tracer tracer_;

  Mempool pool_;
  std::unique_ptr<SimNic> nic_;
  LinkMeter link_meter_;
  std::vector<std::unique_ptr<QueueWorker>> workers_;
  LcoreLauncher lcores_;

  PubSocket bus_;
  std::unique_ptr<EnrichmentPool> enrichment_;
  std::shared_ptr<Subscription> enrichment_sub_;

  TsdbEngine tsdb_;
  LatencyAggregator city_pairs_{LatencyAggregator::Mode::kCityPair};
  LatencyAggregator as_pairs_{LatencyAggregator::Mode::kAsPair};
  ArcAggregator arcs_;
  AlertLog alerts_;

  std::unique_ptr<SynFloodDetector> synflood_;
  std::unique_ptr<ConnCountDetector> conncount_;
  std::unique_ptr<EwmaDetector> ewma_;
  std::mutex ewma_mu_;
  std::unique_ptr<PeriodicSpikeDetector> periodic_;
  std::mutex periodic_mu_;

  std::atomic<std::uint64_t> alerts_published_{0};
  bool started_ = false;
  bool finished_ = false;

  // Last members: the timer/watchdog threads read metrics_/tsdb_/the
  // stage counters and must be destroyed (joined) before anything they
  // observe.
  obs::MetricsRegistry metrics_;
  obs::HistogramHandle tsdb_write_hist_;  ///< shared shard (record_shared)
  obs::TraceHandle sink_trace_;  ///< tsdb-sink spans (shared ring: N enrichers)
  std::unique_ptr<obs::SnapshotTimer> snapshot_timer_;
  std::unique_ptr<obs::Watchdog> watchdog_;
};

/// Aggregated end-of-run statistics across every stage.
struct PipelineSummary {
  NicStats nic;
  std::uint64_t mempool_alloc_failures = 0;
  WorkerStats workers;           ///< summed
  TrackerStats tracker;          ///< summed
  std::uint64_t bus_published = 0;        ///< latency *samples* only (batches weighted)
  std::uint64_t bus_alerts_published = 0; ///< "ruru.alerts" messages
  std::uint64_t bus_dropped = 0;          ///< samples lost to the HWM (whole batches)
  std::uint64_t enriched = 0;             ///< samples enriched
  std::uint64_t decode_failures = 0;
  std::uint64_t unlocated = 0;
  std::uint64_t tsdb_points = 0;
  std::size_t alerts = 0;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace ruru
