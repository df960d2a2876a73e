#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "anomaly/alert_codec.hpp"
#include "msg/codec.hpp"
#include "obs/tsc_clock.hpp"
#include "util/logging.hpp"

namespace ruru {

Status check_pin_list(const PipelineConfig& config) {
  const std::size_t workers = config.num_queues, pins = config.pin_cpus.size();
  // The enrichment pool runs at least one thread.
  const std::size_t enrichers = std::max<std::size_t>(config.enrichment_threads, 1);
  if (pins == 0 || pins == workers || (pins > workers && pins - workers == enrichers)) return {};
  return make_error("pin_cpus must list one CPU per worker (" + std::to_string(workers) +
                    ") or per worker + enrichment thread (" + std::to_string(workers) + " + " +
                    std::to_string(enrichers) + "), got " + std::to_string(pins));
}

RuruPipeline::RuruPipeline(PipelineConfig config, const GeoDatabase& geo, const AsDatabase& as,
                           const Geo6Database* geo6)
    : config_(config),
      geo_(geo),
      as_(as),
      pool_(config.mempool_size, config.mbuf_size),
      link_meter_(config.link_meter_window),
      // One fan-in lane per worker lcore: worker q is the sole producer
      // on lane q of every subscription, so N workers flushing batches
      // never share a ring cursor.
      bus_(4096, config.num_queues),
      tsdb_(TsdbOptions{config.tsdb_shards, config.tsdb_chunk_points}) {
  // A wrong-length pin list is a config bug: silently pinning the wrong
  // threads would be worse than failing loudly.
  if (Status pins = check_pin_list(config_); !pins) throw std::invalid_argument(pins.error());
  // Flight recorder first: stages constructed below take handles into
  // its rings.  With sample_n == 0 (or -DRURU_TRACE=0) every handle is
  // inert and the NIC never stamps.
  tracer_.configure(obs::TracerConfig{config_.trace_sample_n, config_.trace_ring_capacity});
  // One timebase for bus stamps, queue-wait, transit and trace spans:
  // the calibrated TSC clock (anchored to steady_clock's epoch, so the
  // swap is invisible to existing metrics consumers).
  if (config_.metrics_enabled || tracer_.enabled()) {
    bus_.set_stamp_clock(&obs::trace_clock());
  }

  NicConfig nic_cfg;
  nic_cfg.num_queues = config_.num_queues;
  nic_cfg.queue_depth = config_.queue_depth;
  nic_cfg.rss_key = config_.rss_key;
  nic_cfg.trace_sample_n = tracer_.enabled() ? config_.trace_sample_n : 0;
  nic_ = std::make_unique<SimNic>(nic_cfg, pool_);

  if (config_.enable_synflood) synflood_ = std::make_unique<SynFloodDetector>(config_.synflood);
  if (config_.enable_conncount) conncount_ = std::make_unique<ConnCountDetector>(config_.conncount);
  if (config_.enable_ewma) ewma_ = std::make_unique<EwmaDetector>(config_.ewma);
  if (config_.enable_periodic) {
    periodic_ = std::make_unique<PeriodicSpikeDetector>(config_.periodic);
  }

  // One worker per RX queue, publishing batched measurements onto the
  // bus: one frame per accumulator flush, weighted by its sample count
  // so every bus counter stays denominated in samples.
  workers_.reserve(config_.num_queues);
  InflowConfig inflow;
  inflow.enabled = config_.inflow_rtt;
  inflow.ring_entries = config_.ts_ring_entries;
  inflow.min_interval = Duration::from_us(static_cast<std::int64_t>(config_.inflow_min_interval_us));
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    auto worker = std::make_unique<QueueWorker>(*nic_, q, config_.flow_table_capacity, nullptr,
                                                config_.flow_stale_after,
                                                config_.flow_probe_window, inflow);
    worker->set_fast_path(config_.worker_fast_path);
    worker->set_prefetch_depth(config_.worker_prefetch_depth);
    worker->set_batch_sink(
        [this, q](std::span<const LatencySample> samples) {
          Message m = encode_latency_batch(samples);
          // Publish stamp (anchors bus queue wait, end-to-end transit
          // and the bus trace span — capture time is virtual in replay,
          // so transit cannot start at the capture stamp) comes from
          // the socket's stamp clock: the calibrated TSC clock, one
          // timebase for metrics and spans.  Worker q is lane q's only
          // publisher: the fan-in ticket CAS is uncontended no matter
          // how many workers flush at once.
          bus_.publish_lane_stamped(q, m, samples.size());
          if (synflood_) {
            for (const LatencySample& s : samples) {
              // Only handshake completions count: an in-flow sample is
              // not a new connection and would dilute the SYN ratio.
              if (s.kind == SampleKind::kHandshake && s.server.is_v4()) {
                synflood_->on_completion(s.ack_time, s.server.v4);
              }
            }
          }
        },
        config_.bus_batch_size, config_.bus_batch_linger);
    if (synflood_) {
      worker->set_syn_sink(
          [this](Timestamp t, Ipv4Address server) { synflood_->on_syn(t, server); });
    }
    workers_.push_back(std::move(worker));
  }
  if (tracer_.enabled()) {
    for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
      workers_[q]->set_trace(tracer_.ring("worker.q" + std::to_string(q)),
                             config_.trace_sample_n);
    }
    // The TSDB sink runs on whichever enrichment thread carries the
    // sample, so its ring is the one multi-producer (locked) ring.
    sink_trace_ = tracer_.shared_ring("tsdb.sink");
  }

  enrichment_sub_ = bus_.subscribe(std::string(kLatencyTopic), config_.bus_hwm);
  enrichment_ = std::make_unique<EnrichmentPool>(enrichment_sub_, geo_, as_,
                                                 config_.enrichment_threads, geo6);
  register_metrics();
  wire_sinks();

  if (config_.watchdog_enabled) {
    obs::WatchdogConfig wc;
    wc.check_interval = config_.watchdog_interval;
    wc.stall_after = config_.watchdog_stall_after;
    watchdog_ = std::make_unique<obs::Watchdog>(wc, &tracer_);
    // Heartbeats: each stage's own progress counter.  Worker polls and
    // snapshot ticks must always advance (a poll loop spins, a timer
    // ticks); enrichment and the TSDB sink are only stalled if frozen
    // *with* bus backlog — an idle pipeline is healthy.
    for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
      QueueWorker* w = workers_[q].get();
      watchdog_->add_stage("worker.q" + std::to_string(q),
                           [w] { return w->stats().polls.load(); });
    }
    watchdog_->add_stage(
        "enrich", [this] { return enrichment_->processed(); },
        [this] { return static_cast<double>(enrichment_sub_->pending()); });
    if (snapshot_timer_) {
      watchdog_->add_stage("snapshot", [this] { return snapshot_timer_->ticks(); });
    }
    if (config_.tsdb_store_samples) {
      watchdog_->add_stage(
          "tsdb", [this] { return tsdb_.points_written(); },
          [this] { return static_cast<double>(enrichment_sub_->pending()); });
    }
    watchdog_->set_report_sink([this](const obs::WatchdogReport& r) {
      // The flight record itself goes through the logger (the stall
      // summary line was already logged by the watchdog) ...
      RURU_LOG(kWarn, "watchdog") << "\n" << r.dump;
      // ... and the event lands in the pipeline's own TSDB as a
      // ruru.health.* series, same self-ingest pattern as ruru.self.*.
      TagSet tags;
      tags.add("stage", r.stage.empty() ? "-" : r.stage).add("reason", r.reason);
      tsdb_.write("ruru.health." + r.reason, tags, obs::trace_clock().now(),
                  r.reason == "stall" ? r.stalled_for.to_sec() : 1.0);
    });
  }
}

namespace {

/// One counter per row of `table`, each summing its cell over the shards
/// `for_each_shard` hands to its callback.
template <class S, std::size_t N, class ForEachShard>
void register_stat_sums(obs::MetricsRegistry& metrics, const std::array<StatField<S>, N>& table,
                        ForEachShard for_each_shard) {
  for (const StatField<S>& f : table) {
    metrics.register_counter_fn(f.name, [f, for_each_shard] {
      std::uint64_t total = 0;
      for_each_shard([&](const S& shard) { total += f.read(shard); });
      return total;
    });
  }
}

}  // namespace

void RuruPipeline::register_metrics() {
  // Callback metrics over the stages' own single-writer StatCells: the
  // data path is not instrumented twice, and a snapshot reads live
  // values race-free. Registered unconditionally — polling only happens
  // at snapshot time, and summary() is a view over these.  Each stats
  // struct's field table (next to the struct) names its counters.
  register_stat_sums(metrics_, kNicStatFields, [this](auto&& add) { add(nic_->stats()); });
  metrics_.register_counter_fn("mempool.alloc_failures",
                               [this] { return pool_.alloc_failures(); });
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    metrics_.register_gauge_fn("nic.queue_occupancy.q" + std::to_string(q), [this, q] {
      return static_cast<double>(nic_->queue_occupancy(q));
    });
  }

  // Worker / tracker / flow-table / in-flow counters, summed across
  // queues (the in-flow cells stay zero with flow.inflow_rtt off).
  const auto per_worker = [this](const auto& table, auto stats_of) {
    register_stat_sums(metrics_, table, [this, stats_of](auto&& add) {
      for (const auto& w : workers_) add(stats_of(*w));
    });
  };
  per_worker(kWorkerStatFields, [](const QueueWorker& w) -> auto& { return w.stats(); });
  per_worker(kTrackerStatFields, [](const QueueWorker& w) -> auto& { return w.tracker_stats(); });
  per_worker(kFlowTableStatFields,
             [](const QueueWorker& w) -> auto& { return w.tracker().table().stats(); });
  per_worker(kInflowStatFields,
             [](const QueueWorker& w) -> auto& { return w.tracker().inflow_stats(); });
  metrics_.register_gauge_fn("flow.entries", [this] {
    std::size_t total = 0;
    for (const auto& w : workers_) total += w->tracker().table().size();
    return static_cast<double>(total);
  });

  // Bus / enrichment / storage / alerting — all backed by atomics or
  // mutex-guarded accessors, safe from the snapshot thread.
  metrics_.register_counter_fn("bus.published", [this] { return bus_.published(); });
  metrics_.register_counter_fn("bus.alerts_published", [this] {
    return alerts_published_.load(std::memory_order_relaxed);
  });
  metrics_.register_counter_fn("bus.delivered",
                               [this] { return enrichment_sub_->delivered(); });
  metrics_.register_counter_fn("bus.dropped", [this] { return enrichment_sub_->dropped(); });
  metrics_.register_gauge_fn("bus.pending", [this] {
    return static_cast<double>(enrichment_sub_->pending());
  });
  // Enricher shards are summed by combined_stats().
  register_stat_sums(metrics_, kEnricherStatFields,
                     [this](auto&& add) { add(enrichment_->combined_stats()); });
  metrics_.register_counter_fn("enrich.decode_failures",
                               [this] { return enrichment_->decode_failures(); });
  metrics_.register_counter_fn("tsdb.points", [this] { return tsdb_.points_written(); });
  metrics_.register_counter_fn("alerts.raised",
                               [this] { return static_cast<std::uint64_t>(alerts_.count()); });
  // Self-health: flight-recorder volume and watchdog verdicts.  The
  // watchdog is constructed after this runs, hence the null guards.
  metrics_.register_counter_fn("trace.events", [this] { return tracer_.events_emitted(); });
  metrics_.register_counter_fn("health.stalls", [this] {
    return watchdog_ ? watchdog_->stalls_detected() : 0;
  });
  metrics_.register_counter_fn("health.dumps", [this] {
    return watchdog_ ? watchdog_->dumps_taken() : 0;
  });

  // Enrichment-side hooks: histograms when metrics are on, the flight
  // recorder's per-worker span ring when tracing is on — either alone
  // installs the factory.
  const bool tracing = tracer_.enabled();
  if (config_.metrics_enabled || tracing) {
    enrichment_->set_obs_factory([this, tracing](std::size_t i) {
      PoolObs o;
      if (config_.metrics_enabled) {
        o.queue_wait = metrics_.histogram("bus.queue_wait_ns", i);
        o.enrich_batch = metrics_.histogram("enrich.batch_ns", i);
        o.transit = metrics_.histogram("pipeline.transit_ns", i);
        o.transit_sample_every = config_.transit_sample_every;
      }
      if (tracing) {
        o.trace = tracer_.ring("enrich.w" + std::to_string(i));
        o.trace_sample_n = config_.trace_sample_n;
      }
      return o;
    });
  }

  if (!config_.metrics_enabled) return;

  // Hot-path latency histograms: one shard per writer thread, handed to
  // each stage before it runs.
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    WorkerObs wobs;
    wobs.poll_batch = metrics_.histogram("worker.poll_batch", q);
    wobs.batch_fill = metrics_.histogram("worker.batch_fill", q);
    if (config_.inflow_rtt) {
      wobs.inflow_rtt = metrics_.histogram("flow.inflow_rtt_ns", q);
      wobs.one_sided_delta = metrics_.histogram("flow.one_sided_delta_ns", q);
    }
    if (config_.worker_fast_path) {
      wobs.burst_candidates = metrics_.histogram("worker.burst_candidates", q);
      wobs.candidate_run_len = metrics_.histogram("worker.candidate_run_len", q);
    }
    wobs.flow.probe_groups = metrics_.histogram("flow.probe_groups", q);
    wobs.flow.group_occupancy = metrics_.histogram("flow.group_occupancy", q);
    workers_[q]->set_obs(wobs);
  }
  // TSDB writes happen on whichever enrichment thread runs the sink, so
  // this one shard is shared (record_shared) — the write itself is
  // mutex-guarded, contention is already paid.
  tsdb_write_hist_ = metrics_.histogram("tsdb.write_ns");

  snapshot_timer_ = std::make_unique<obs::SnapshotTimer>(metrics_, config_.metrics_interval);
  if (config_.metrics_self_ingest) {
    snapshot_timer_->add_exporter(std::make_shared<obs::SelfIngestExporter>(tsdb_));
  }
  if (!config_.metrics_prometheus_path.empty()) {
    snapshot_timer_->add_exporter(
        std::make_shared<obs::PrometheusExporter>(config_.metrics_prometheus_path));
  }
  if (!config_.metrics_json_path.empty()) {
    snapshot_timer_->add_exporter(
        std::make_shared<obs::JsonLinesExporter>(config_.metrics_json_path));
  }
}

void RuruPipeline::wire_sinks() {
  // Route-keyed series cache: the sink's four tags are a pure function
  // of (client city, server city, client AS, server AS), so each
  // distinct route builds its TagSet and resolves its three series once.
  // The steady-state TSDB path is three SeriesId appends — no strings,
  // no TagSet, no canonicalization.  Keyed exactly (no lossy hashing):
  // interned city ids + ASNs, with unlocated endpoints collapsed to the
  // same sentinel the "?" tag value collapses them to.
  struct RouteCache {
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    static Key key_of(const EnrichedSample& s) {
      constexpr std::uint64_t kUnlocated = 0xFFFF'FFFFull;
      const std::uint64_t cities =
          ((s.client.located ? std::uint64_t{s.client.city_id} : kUnlocated) << 32) |
          (s.server.located ? std::uint64_t{s.server.city_id} : kUnlocated);
      const std::uint64_t asns =
          (std::uint64_t{s.client.asn} << 32) | std::uint64_t{s.server.asn};
      return {cities, asns};
    }
    /// The four route tags every sink series carries, built on a
    /// route's first sample only.
    static TagSet route_tags(const EnrichedSample& s) {
      TagSet tags;
      tags.add("src_city", std::string(s.client.located ? s.client.city() : "?"))
          .add("dst_city", std::string(s.server.located ? s.server.city() : "?"))
          .add("src_as", std::to_string(s.client.asn))
          .add("dst_as", std::to_string(s.server.asn));
      return tags;
    }
    struct Hash {
      std::size_t operator()(const Key& k) const {
        std::uint64_t x = k.first ^ (k.second * 0x9E3779B97F4A7C15ull);
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        x ^= x >> 33;
        return static_cast<std::size_t>(x);
      }
    };
    std::mutex mu;
    std::unordered_map<Key, std::array<SeriesId, 3>, Hash> map;
    /// In-flow series per route: 4 classes — (kInflow|kOneSided) x
    /// (toward_client) — resolved lazily like the handshake triple.
    struct InflowSeries {
      std::array<SeriesId, 4> sid{};
      std::array<bool, 4> have{};
    };
    std::unordered_map<Key, InflowSeries, Hash> inflow;
  };
  auto routes = std::make_shared<RouteCache>();
  enrichment_->add_sink([this, routes](const EnrichedSample& s) {
    if (s.kind != SampleKind::kHandshake) {
      // In-flow and one-sided samples carry one measured half, not a
      // three-way handshake: they go to their own TSDB measurements
      // ("inflow_ms" / "onesided_ms", tagged with which half) and stay
      // out of the aggregators and anomaly detectors, whose models
      // (pair RTT means, completion counts) assume handshake triples.
      if (!config_.tsdb_store_samples) return;
      const RouteCache::Key key = RouteCache::key_of(s);
      const std::size_t cls =
          (s.kind == SampleKind::kInflow ? 0 : 2) + (s.toward_client ? 1 : 0);
      SeriesId sid{};
      bool cached = false;
      {
        std::lock_guard lock(routes->mu);
        const auto it = routes->inflow.find(key);
        if (it != routes->inflow.end() && it->second.have[cls]) {
          sid = it->second.sid[cls];
          cached = true;
        }
      }
      if (!cached) {
        TagSet tags = RouteCache::route_tags(s);
        tags.add("half", s.toward_client ? "internal" : "external");
        sid = tsdb_.series(s.kind == SampleKind::kInflow ? "inflow_ms" : "onesided_ms", tags);
        std::lock_guard lock(routes->mu);
        auto& e = routes->inflow[key];
        e.sid[cls] = sid;
        e.have[cls] = true;
      }
      tsdb_.append(sid, s.completed_at, s.total.to_ms());
      return;
    }
    city_pairs_.add(s);
    as_pairs_.add(s);
    arcs_.add(s);

    if (config_.tsdb_store_samples) {
      const RouteCache::Key key = RouteCache::key_of(s);
      std::array<SeriesId, 3> sids;
      bool cached = false;
      {
        std::lock_guard lock(routes->mu);
        if (const auto it = routes->map.find(key); it != routes->map.end()) {
          sids = it->second;
          cached = true;
        }
      }
      if (!cached) {
        // First sample on this route: build the tags and resolve once.
        const TagSet tags = RouteCache::route_tags(s);
        sids = {tsdb_.series("total_ms", tags), tsdb_.series("internal_ms", tags),
                tsdb_.series("external_ms", tags)};
        std::lock_guard lock(routes->mu);
        routes->map.emplace(key, sids);
      }
      // TSC timebase for both the write histogram and the tsdb span —
      // the same clock every other stage stamps with.
      const bool timed = tsdb_write_hist_.attached();
      const bool traced = sink_trace_.attached() && s.trace_id != 0;
      Timestamp t0{};
      if (timed || traced) t0 = obs::trace_clock().now();
      tsdb_.append(sids[0], s.completed_at, s.total.to_ms());
      tsdb_.append(sids[1], s.completed_at, s.internal.to_ms());
      tsdb_.append(sids[2], s.completed_at, s.external.to_ms());
      if (timed || traced) {
        const Timestamp t1 = obs::trace_clock().now();
        if (timed) tsdb_write_hist_.record_shared(t1 - t0);
        if (traced) {
          sink_trace_.span(obs::TraceStage::kTsdb, s.trace_id, t0.ns, (t1 - t0).ns,
                           3 /*points*/, s.queue_id);
        }
      }
    }

    if (ewma_) {
      std::optional<Alert> alert;
      {
        std::lock_guard lock(ewma_mu_);
        alert = ewma_->update(s.completed_at, s.total.to_ms());
      }
      if (alert) {
        alert->subject = std::string(s.client.located ? s.client.city() : "?") + "|" +
                         std::string(s.server.located ? s.server.city() : "?");
        bus_.publish(encode_alert(*alert));  // live "ruru.alerts" feed
        alerts_published_.fetch_add(1, std::memory_order_relaxed);
        alerts_.raise(std::move(*alert));
      }
    }
    if (periodic_) {
      // Keyed by *start* time: the firewall delayed connections opened
      // inside the window; their completions land ~4 s later and would
      // smear across buckets.
      std::lock_guard lock(periodic_mu_);
      periodic_->add(s.started_at, s.total);
    }
    if (conncount_) conncount_->add(s);
  });
}

RuruPipeline::~RuruPipeline() { finish(); }

void RuruPipeline::start() {
  if (started_) return;
  started_ = true;
  // Pin list layout (validated in the constructor): workers first, then
  // optionally one entry per enrichment thread.
  if (config_.pin_cpus.size() > config_.num_queues) {
    enrichment_->set_pin_cpus({config_.pin_cpus.begin() + config_.num_queues,
                               config_.pin_cpus.end()});
  }
  enrichment_->start();
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    QueueWorker* w = workers_[q].get();
    const int cpu = config_.pin_cpus.empty() ? kNoCpuPin : config_.pin_cpus[q];
    lcores_.launch([w](std::uint32_t, const std::atomic<bool>& stop) { w->run(stop); }, cpu);
  }
  if (snapshot_timer_) snapshot_timer_->start();
  if (watchdog_) {
    watchdog_->start();
    obs::Watchdog::install_sigusr1(watchdog_.get());
  }
  RURU_LOG(kInfo, "core") << "pipeline started: " << config_.num_queues << " queues, "
                          << config_.enrichment_threads << " enrichment threads"
                          << (config_.pin_cpus.empty() ? "" : ", pinned topology");
}

std::size_t RuruPipeline::inject_burst(std::span<const RxFrame> frames, bool* queued) {
  if (config_.enable_link_meter) {
    // The meter sees the wire, not the queues: every frame counts even
    // if the NIC then drops it.
    for (const RxFrame& f : frames) link_meter_.on_packet(f.rx_time, f.data.size());
  }
  return nic_->inject_burst(frames, queued);
}

void RuruPipeline::finish() {
  if (!started_ || finished_) return;
  finished_ = true;

  // 0. Watchdog first: stages stopping below would read as stalls.
  if (watchdog_) {
    obs::Watchdog::install_sigusr1(nullptr);
    watchdog_->stop();
  }
  // 1. Workers drain their queues, then stop.
  lcores_.stop_and_join();
  // 2. Flush capture-side windowed detectors (they are fed by workers,
  //    which have stopped) and publish their alerts while the bus is
  //    still open so "ruru.alerts" subscribers see them.
  std::vector<Alert> capture_side;
  if (synflood_) synflood_->flush(capture_side);
  for (auto& a : capture_side) {
    bus_.publish(encode_alert(a));
    alerts_published_.fetch_add(1, std::memory_order_relaxed);
    alerts_.raise(std::move(a));
  }
  // 3. Close the bus; enrichment workers drain the backlog and exit.
  //    (conncount/periodic are fed by enrichment, so they flush after —
  //    their end-of-run alerts reach the log but not closed
  //    subscriptions.)
  bus_.close_all();
  enrichment_->stop();
  // Telemetry thread stops after the stages it watches drain; stop()
  // takes one final snapshot so exporters see the end-of-run totals.
  if (snapshot_timer_) snapshot_timer_->stop();
  std::vector<Alert> pending;
  if (conncount_) conncount_->flush(pending);
  if (periodic_) {
    std::lock_guard lock(periodic_mu_);
    for (auto& a : periodic_->alerts()) pending.push_back(a);
  }
  for (auto& a : pending) alerts_.raise(std::move(a));

  // 4. Persist link-load windows ("SNMP view, but per second").
  if (config_.enable_link_meter) {
    link_meter_.flush();
    TagSet tags;
    tags.add("port", "0");
    for (const auto& w : link_meter_.closed()) {
      tsdb_.write("link_mbps", tags, w.start, w.mbps());
      tsdb_.write("link_pps", tags, w.start, w.pps());
    }
  }

  // 5. Apply the storage policy (continuous-query downsampling, then
  //    raw-sample retention anchored at the last capture timestamp).
  if (config_.downsample_window.ns > 0) {
    for (const char* m : {"total_ms", "internal_ms", "external_ms"}) {
      tsdb_.downsample(m, std::string(m) + "_" + config_.downsample_stat,
                       config_.downsample_window, config_.downsample_stat);
    }
  }
  if (config_.retention_horizon.ns > 0 && !link_meter_.closed().empty()) {
    const Timestamp capture_end =
        link_meter_.closed().back().start + config_.link_meter_window;
    // Only raw per-sample series age out; downsampled and link series stay.
    tsdb_.enforce_retention(capture_end, config_.retention_horizon,
                            {"total_ms", "internal_ms", "external_ms"});
  }

  // 6. Export the flight record now that every stage has emitted its
  //    last span.
  if (!config_.trace_json_path.empty() && tracer_.enabled()) {
    if (tracer_.export_chrome_json_file(config_.trace_json_path)) {
      RURU_LOG(kInfo, "core") << "flight record exported to " << config_.trace_json_path
                              << " (" << tracer_.events_emitted() << " events emitted)";
    } else {
      RURU_LOG(kWarn, "core") << "failed to export flight record to "
                              << config_.trace_json_path;
    }
  }

  RURU_LOG(kInfo, "core") << "pipeline finished: " << summary().to_string();
}

PipelineSummary RuruPipeline::summary() const {
  // A view over the metrics registry: the same callback metrics the
  // snapshot thread exports, merged once. One source of truth.
  const obs::MetricsSnapshot snap = metrics_.snapshot(Timestamp{});
  PipelineSummary s;
  const auto fill = [&snap](auto& stats, const auto& table) {
    for (const auto& f : table) f.cell(stats) = snap.counter_or(f.name);
  };
  fill(s.nic, kNicStatFields);
  fill(s.workers, kWorkerStatFields);
  fill(s.tracker, kTrackerStatFields);
  s.mempool_alloc_failures = snap.counter_or("mempool.alloc_failures");
  const std::uint64_t alerts_published = snap.counter_or("bus.alerts_published");
  s.bus_alerts_published = alerts_published;
  s.bus_published = snap.counter_or("bus.published") - alerts_published;  // latency samples
  s.bus_dropped = snap.counter_or("bus.dropped");
  s.enriched = snap.counter_or("enrich.processed");
  s.decode_failures = snap.counter_or("enrich.decode_failures");
  s.unlocated = snap.counter_or("enrich.unlocated");
  s.tsdb_points = snap.counter_or("tsdb.points");
  s.alerts = snap.counter_or("alerts.raised");
  return s;
}

}  // namespace ruru
