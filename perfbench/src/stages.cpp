#include "stages.hpp"

#include <array>
#include <functional>
#include <map>
#include <memory>

#include "analytics/aggregator.hpp"
#include "analytics/enricher.hpp"
#include "anomaly/conncount_detector.hpp"
#include "anomaly/ewma_detector.hpp"
#include "anomaly/synflood_detector.hpp"
#include "driver/mempool.hpp"
#include "flow/worker.hpp"
#include "harness.hpp"
#include "msg/codec.hpp"
#include "stats.hpp"
#include "tsdb/query.hpp"
#include "viz/arc_aggregator.hpp"

namespace ruru::e2e {

namespace {

/// Frames injected before the isolated workers drain them: well inside
/// one queue's ring, whatever the RSS split.
constexpr std::size_t kChunk = 4096;
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 200;

/// Runs `pass` (which returns the nanoseconds it timed) until `budget_s`
/// is spent and at least kMinPasses ran; the median ns per item.
double measure(double budget_s, std::size_t items, const std::function<std::int64_t()>& pass) {
  std::vector<double> per_item;
  const std::int64_t start = now_ns();
  while (per_item.size() < static_cast<std::size_t>(kMinPasses) ||
         (static_cast<double>(now_ns() - start) * 1e-9 < budget_s &&
          per_item.size() < static_cast<std::size_t>(kMaxPasses))) {
    const std::int64_t ns = pass();
    per_item.push_back(items == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(items));
  }
  return median(per_item);
}

struct SynEvent {
  Timestamp time;
  Ipv4Address server;
};

}  // namespace

StageResult run_stages(const Trace& trace, double budget_s) {
  StageResult out;
  const PipelineConfig cfg = bench_config(false);
  const std::size_t n_frames = trace.frames.size();
  // The two frame stages cost far more per pass than the sample stages.
  const double frame_budget = budget_s * 0.3;
  const double sample_budget = budget_s * 0.4 / 7.0;
  const auto add = [&out](const char* name, double ns) { out.ns_per_item.emplace_back(name, ns); };

  Mempool pool(cfg.mempool_size, cfg.mbuf_size);
  NicConfig nic_cfg;
  nic_cfg.num_queues = cfg.num_queues;
  nic_cfg.queue_depth = cfg.queue_depth;
  nic_cfg.rss_key = cfg.rss_key;
  SimNic nic(nic_cfg, pool);
  const std::size_t burst = cfg.inject_burst_size;
  std::unique_ptr<bool[]> queued = std::make_unique<bool[]>(burst);
  const std::span<const RxFrame> frames(trace.frames);
  // Injects frames [off, off + kChunk) untimed-or-timed by the caller;
  // every frame must fit, since the rings are drained between chunks.
  const auto inject_chunk = [&](std::size_t off) {
    const std::size_t end = std::min(off + kChunk, n_frames);
    for (std::size_t b = off; b < end; b += burst) {
      const auto chunk = frames.subspan(b, std::min(burst, end - b));
      if (nic.inject_burst(chunk, queued.get()) != chunk.size() && out.failure.empty()) {
        out.failure = "isolated NIC refused a frame";
      }
    }
  };

  // driver: SimNic::inject_burst, then an rx_burst drain that frees the mbufs.
  add("driver.inject_self_ns_per_frame", measure(frame_budget / 2, n_frames, [&] {
        std::array<MbufPtr, QueueWorker::kBurst> rx;
        const std::int64_t t0 = now_ns();
        for (std::size_t off = 0; off < n_frames; off += kChunk) {
          inject_chunk(off);
          for (std::uint16_t q = 0; q < nic.num_queues(); ++q) {
            std::size_t got = 0;
            while ((got = nic.rx_burst(q, rx)) != 0) {
              for (std::size_t i = 0; i < got; ++i) rx[i].reset();
            }
          }
        }
        return now_ns() - t0;
      }));

  // flow: QueueWorker::poll_once over pre-filled rings, fresh flow tables
  // each pass.  The first pass keeps the samples and SYNs it produced.
  std::vector<LatencySample> samples;
  std::vector<SynEvent> syns;
  bool collect = true;
  add("flow.self_ns_per_frame", measure(frame_budget / 2, n_frames, [&] {
        std::vector<std::unique_ptr<QueueWorker>> workers;
        InflowConfig inflow;
        inflow.enabled = cfg.inflow_rtt;
        inflow.ring_entries = cfg.ts_ring_entries;
        inflow.min_interval = Duration::from_us(static_cast<std::int64_t>(cfg.inflow_min_interval_us));
        for (std::uint16_t q = 0; q < cfg.num_queues; ++q) {
          auto w = std::make_unique<QueueWorker>(nic, q, cfg.flow_table_capacity, nullptr,
                                                 cfg.flow_stale_after, cfg.flow_probe_window,
                                                 inflow);
          w->set_fast_path(cfg.worker_fast_path);
          w->set_prefetch_depth(cfg.worker_prefetch_depth);
          w->set_batch_sink(
              [&](std::span<const LatencySample> batch) {
                if (collect) samples.insert(samples.end(), batch.begin(), batch.end());
              },
              cfg.bus_batch_size, cfg.bus_batch_linger);
          if (cfg.enable_synflood) {
            w->set_syn_sink([&](Timestamp t, Ipv4Address server) {
              if (collect) syns.push_back({t, server});
            });
          }
          workers.push_back(std::move(w));
        }
        std::int64_t timed = 0;
        for (std::size_t off = 0; off < n_frames; off += kChunk) {
          inject_chunk(off);
          const std::int64_t t0 = now_ns();
          for (auto& w : workers) {
            while (w->poll_once() != 0) {
            }
          }
          timed += now_ns() - t0;
        }
        collect = false;
        return timed;
      }));
  out.samples = samples.size();
  out.syns = syns.size();

  // msg: the worker's batch encode and the enricher's decode.
  const std::size_t batch = cfg.bus_batch_size;
  const std::span<const LatencySample> sample_span(samples);
  add("msg.codec_self_ns_per_sample", measure(sample_budget, samples.size(), [&] {
        std::vector<LatencySample> decoded;
        decoded.reserve(kMaxLatencyBatch);
        const std::int64_t t0 = now_ns();
        for (std::size_t off = 0; off < samples.size(); off += batch) {
          const Message m = encode_latency_batch(sample_span.subspan(off, std::min(batch, samples.size() - off)));
          decoded.clear();
          if (!decode_latency_payload(m.frames[1], decoded) && out.failure.empty()) {
            out.failure = "isolated codec could not decode its own batch";
          }
        }
        return now_ns() - t0;
      }));

  // analytics: a cold Enricher per pass, batch by batch as the pool runs it.
  auto world_or = build_world(scenario_sites());
  if (!world_or.ok()) {
    out.failure = "world build failed: " + world_or.error();
    return out;
  }
  const World world = std::move(world_or).value();
  std::vector<EnrichedSample> enriched;
  enriched.reserve(samples.size());
  add("analytics.enrich_self_ns_per_sample", measure(sample_budget, samples.size(), [&] {
        Enricher enricher(world.geo, world.as);
        enriched.clear();
        const std::int64_t t0 = now_ns();
        for (std::size_t off = 0; off < samples.size(); off += batch) {
          enricher.enrich_batch(sample_span.subspan(off, std::min(batch, samples.size() - off)),
                                enriched);
        }
        return now_ns() - t0;
      }));

  add("analytics.aggregate_self_ns_per_sample", measure(sample_budget, enriched.size(), [&] {
        LatencyAggregator city(LatencyAggregator::Mode::kCityPair);
        LatencyAggregator as(LatencyAggregator::Mode::kAsPair);
        const std::int64_t t0 = now_ns();
        for (const EnrichedSample& s : enriched) {
          city.add(s);
          as.add(s);
        }
        return now_ns() - t0;
      }));

  // tsdb: three appends per sample, series resolved per route beforehand
  // (the pipeline's route cache makes the steady state id-only appends).
  add("tsdb.append_self_ns_per_point", measure(sample_budget, enriched.size() * 3, [&] {
        TsdbEngine tsdb(TsdbOptions{cfg.tsdb_shards, cfg.tsdb_chunk_points});
        std::map<std::array<std::uint64_t, 4>, std::array<SeriesId, 3>> routes;
        std::vector<std::array<SeriesId, 3>> sids;
        sids.reserve(enriched.size());
        for (const EnrichedSample& s : enriched) {
          const std::array<std::uint64_t, 4> key{s.client.located ? s.client.city_id : ~0ull,
                                                 s.server.located ? s.server.city_id : ~0ull,
                                                 s.client.asn, s.server.asn};
          auto it = routes.find(key);
          if (it == routes.end()) {
            TagSet tags;
            tags.add("src_city", std::string(s.client.located ? s.client.city() : "?"))
                .add("dst_city", std::string(s.server.located ? s.server.city() : "?"))
                .add("src_as", std::to_string(s.client.asn))
                .add("dst_as", std::to_string(s.server.asn));
            it = routes
                     .emplace(key, std::array<SeriesId, 3>{tsdb.series("total_ms", tags),
                                                           tsdb.series("internal_ms", tags),
                                                           tsdb.series("external_ms", tags)})
                     .first;
          }
          sids.push_back(it->second);
        }
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < enriched.size(); ++i) {
          const EnrichedSample& s = enriched[i];
          tsdb.append(sids[i][0], s.completed_at, s.total.to_ms());
          tsdb.append(sids[i][1], s.completed_at, s.internal.to_ms());
          tsdb.append(sids[i][2], s.completed_at, s.external.to_ms());
        }
        return now_ns() - t0;
      }));

  add("viz.arc_self_ns_per_sample", measure(sample_budget, enriched.size(), [&] {
        ArcAggregator arcs;
        const std::int64_t t0 = now_ns();
        for (const EnrichedSample& s : enriched) arcs.add(s);
        return now_ns() - t0;
      }));

  add("anomaly.syn_self_ns_per_syn", measure(sample_budget, syns.size(), [&] {
        SynFloodDetector detector(cfg.synflood);
        const std::int64_t t0 = now_ns();
        for (const SynEvent& e : syns) detector.on_syn(e.time, e.server);
        return now_ns() - t0;
      }));

  add("anomaly.sample_self_ns_per_sample", measure(sample_budget, enriched.size(), [&] {
        ConnCountDetector conncount(cfg.conncount);
        EwmaDetector ewma(cfg.ewma);
        const std::int64_t t0 = now_ns();
        for (const EnrichedSample& s : enriched) {
          conncount.add(s);
          static_cast<void>(ewma.update(s.completed_at, s.total.to_ms()));
        }
        return now_ns() - t0;
      }));
  return out;
}

}  // namespace ruru::e2e
