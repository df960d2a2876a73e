#include "harness.hpp"

#include <malloc.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "stats.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace ruru::e2e {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Hash of everything a sink can see of a sample except in-process
/// metadata (trace id) and the queue it happened to be steered to.
std::uint64_t sample_hash(const EnrichedSample& s) {
  std::uint64_t h = 0x6A09E667F3BCC908ull;
  const auto add = [&h](std::uint64_t v) { h = mix64(h ^ (v + 0x9E3779B97F4A7C15ull)); };
  for (const GeoInfo* g : {&s.client, &s.server}) {
    add((std::uint64_t{g->city_id} << 32) | g->country_id);
    add((std::uint64_t{g->asn} << 1) | (g->located ? 1 : 0));
  }
  add(static_cast<std::uint64_t>(s.internal.ns));
  add(static_cast<std::uint64_t>(s.external.ns));
  add(static_cast<std::uint64_t>(s.total.ns));
  add(static_cast<std::uint64_t>(s.started_at.ns));
  add(static_cast<std::uint64_t>(s.completed_at.ns));
  add((static_cast<std::uint64_t>(s.kind) << 1) | (s.toward_client ? 1 : 0));
  return h;
}

/// The benchmark's enriched-sample sink: every arrival with its
/// steady-clock time, in preallocated slots (the sink may run on any
/// enrichment thread).
class SinkRecorder {
 public:
  explicit SinkRecorder(std::size_t capacity) : samples_(capacity), arrival_ns_(capacity) {}

  void record(const EnrichedSample& s) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= samples_.size()) return;
    samples_[i] = s;
    arrival_ns_[i] = now_ns();
  }

  /// Arrivals, including any beyond capacity.  Read after finish().
  [[nodiscard]] std::size_t count() const { return next_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t stored() const { return std::min(count(), samples_.size()); }
  [[nodiscard]] const EnrichedSample& sample(std::size_t i) const { return samples_[i]; }
  [[nodiscard]] std::int64_t arrival_ns(std::size_t i) const { return arrival_ns_[i]; }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < stored(); ++i) sum += sample_hash(samples_[i]);
    return mix64(sum ^ count());
  }

 private:
  std::vector<EnrichedSample> samples_;
  std::vector<std::int64_t> arrival_ns_;
  std::atomic<std::size_t> next_{0};
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// A built and started pipeline plus what the replay loops share.
class Replay {
 public:
  Replay(const Trace& trace, bool traced, RepResult& r)
      : trace_(trace), traced_(traced), r_(r), sink_(trace.flows + 1024) {
    r_.frames = trace.frames.size();
    // Peak-RSS baseline: the trace and the sink slots are already
    // resident, so the growth measured below is the pipeline's own.
    malloc_trim(0);
    peak_reset_ = reset_peak_rss();
    rss_base_kib_ = proc_status_kib("VmRSS");

    const std::int64_t t0 = now_ns();
    const std::vector<SiteSpec> sites = scenario_sites();
    auto world = build_world(sites);
    if (!world.ok()) throw std::runtime_error("world build failed: " + world.error());
    world_ = std::make_unique<World>(std::move(world).value());
    pipeline_ = std::make_unique<RuruPipeline>(bench_config(traced), world_->geo, world_->as);
    pipeline_->add_enriched_sink([this](const EnrichedSample& s) { sink_.record(s); });
    pipeline_->start();
    r_.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    burst_ = pipeline_->config().inject_burst_size > 0 ? pipeline_->config().inject_burst_size : 1;
    queued_ = std::make_unique<bool[]>(burst_);
    if (traced_) r_.spans.reserve(trace.frames.size() / burst_ * 2 + trace.flows + 64);
  }

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  RuruPipeline& pipeline() { return *pipeline_; }
  [[nodiscard]] std::size_t burst() const { return burst_; }
  bool* queued() { return queued_.get(); }

  void span(Span::Kind kind, std::int64_t start, std::int64_t end) {
    r_.spans.push_back({kind, start, end});
  }

  /// Traced replays: sample the stage gauges at most once a millisecond.
  void maybe_snapshot(std::int64_t now) {
    if (!traced_ || now - last_snapshot_ns_ < 1'000'000) return;
    last_snapshot_ns_ = now;
    const obs::MetricsSnapshot snap = pipeline_->metrics().snapshot(Timestamp{});
    for (std::uint16_t q = 0; q < pipeline_->nic().num_queues(); ++q) {
      if (const double* v = snap.gauge("nic.queue_occupancy.q" + std::to_string(q))) {
        r_.ring_occupancy.push_back(*v);
      }
    }
    if (const double* v = snap.gauge("bus.pending")) r_.bus_pending.push_back(*v);
  }

  void begin() {
    if (traced_) start_snapshot_ = pipeline_->metrics().snapshot(Timestamp{});
    first_inject_ns_ = now_ns();
  }

  /// finish() and every output check; `latency_origin` maps a frame index
  /// to its scheduled send time (open loop only).
  template <typename Origin>
  void end(Origin&& latency_origin) {
    obs::MetricsSnapshot before;
    if (traced_) before = pipeline_->metrics().snapshot(Timestamp{});
    const std::int64_t d0 = now_ns();
    pipeline_->finish();
    const std::int64_t done = now_ns();
    r_.drain_s = static_cast<double>(done - d0) * 1e-9;
    r_.wall_s = static_cast<double>(done - first_inject_ns_) * 1e-9;
    // Without a resettable peak, the resident size after the run is the
    // closest lower bound.
    const std::uint64_t peak_kib = proc_status_kib(peak_reset_ ? "VmHWM" : "VmRSS");
    r_.rss_mib = (static_cast<double>(peak_kib) - static_cast<double>(rss_base_kib_)) / 1024.0;
    if (traced_) span(Span::Kind::kFinish, d0, done);

    const obs::MetricsSnapshot snap = pipeline_->metrics().snapshot(Timestamp{});
    const auto c = [&snap](std::string_view name) { return snap.counter_or(name); };
    r_.sink_samples = sink_.count();
    r_.samples_emitted = c("tracker.samples_emitted");
    r_.bus_published = c("bus.published") - c("bus.alerts_published");  // latency samples
    r_.bus_dropped = c("bus.dropped");
    r_.alerts = pipeline_->alerts().count();
    r_.digest = sink_.digest();

    if (traced_) {
      const auto d = [&](std::string_view name) {
        return before.counter_or(name) - start_snapshot_.counter_or(name);
      };
      r_.worker_busy = 1.0 - ratio(d("worker.empty_polls"), d("worker.polls"));
      if (const obs::HistogramStats* h = snap.histogram("enrich.batch_ns")) {
        r_.enricher_busy = static_cast<double>(h->sum) * 1e-9 / r_.wall_s;
      }
      r_.skip_frac = ratio(c("worker.fast_path_skips"), c("worker.packets"));
      r_.table_drop_frac = ratio(c("tracker.table_drops"), c("tracker.syn_seen"));
      r_.bus_drop_frac = ratio(r_.bus_dropped, r_.bus_published);
      r_.batch_fill = ratio(c("worker.batched_samples"), c("worker.batch_flushes"));
      r_.cache_hit_frac =
          ratio(c("enrich.cache_hits"), c("enrich.cache_hits") + c("enrich.cache_misses"));
      for (std::size_t i = 0; i < sink_.stored(); ++i) {
        span(Span::Kind::kSink, sink_.arrival_ns(i), sink_.arrival_ns(i));
      }
    }

    for (std::size_t i = 0; i < sink_.stored(); ++i) {
      const std::size_t frame = trace_.frame_at(sink_.sample(i).completed_at);
      if (frame == trace_.frames.size()) {
        fail("sample completed_at matches no trace frame");
        break;
      }
      latency_origin(frame, sink_.arrival_ns(i));
    }
    if (sink_.count() > sink_.stored()) fail("more sink samples than generated flows");
    if (r_.sink_samples != r_.samples_emitted ||
        r_.sink_samples != r_.bus_published - r_.bus_dropped) {
      fail("conservation: sink " + std::to_string(r_.sink_samples) + ", tracker " +
           std::to_string(r_.samples_emitted) + ", bus published-dropped " +
           std::to_string(r_.bus_published - r_.bus_dropped));
    }
  }

  void fail(const std::string& why) {
    if (r_.failure.empty()) r_.failure = why;
  }

 private:
  const Trace& trace_;
  const bool traced_;
  RepResult& r_;
  SinkRecorder sink_;
  bool peak_reset_ = false;
  std::uint64_t rss_base_kib_ = 0;
  std::unique_ptr<World> world_;
  std::unique_ptr<RuruPipeline> pipeline_;
  std::size_t burst_ = 1;
  std::unique_ptr<bool[]> queued_;
  std::int64_t first_inject_ns_ = 0;
  std::int64_t last_snapshot_ns_ = 0;
  obs::MetricsSnapshot start_snapshot_;
};

/// Output equals the ground truth.  An open-loop replay that lost frames
/// saw a different input, so only its conservation checks apply; the
/// loss itself is reported as the delivered fraction.
void check_truth(RepResult& r, const Trace& trace, const Workload& w) {
  if (w.samples_match_truth && r.lost == 0 && r.failure.empty() &&
      r.sink_samples != trace.handshakes) {
    r.failure = "sink samples " + std::to_string(r.sink_samples) +
                " != ground-truth handshakes " + std::to_string(trace.handshakes);
  }
}

}  // namespace

PipelineConfig bench_config(bool traced) {
  PipelineConfig c;
  c.num_queues = 2;
  c.enrichment_threads = 1;
  if (traced) {
    c.metrics_enabled = true;
    c.metrics_self_ingest = false;  // keep the TSDB's contents those of an untraced run
  }
  return c;
}

RepResult run_saturated(const Trace& trace, const Workload& workload, bool traced) {
  RepResult r;
  {
    Replay rp(trace, traced, r);
    RuruPipeline& p = rp.pipeline();
    const std::size_t burst = rp.burst();
    bool* queued = rp.queued();
    std::vector<RxFrame> retry;
    retry.reserve(burst);
    const std::span<const RxFrame> frames(trace.frames);
    rp.begin();
    for (std::size_t off = 0; off < frames.size(); off += burst) {
      const std::span<const RxFrame> chunk = frames.subspan(off, std::min(burst, frames.size() - off));
      const std::int64_t t0 = traced ? now_ns() : 0;
      p.inject_burst(chunk, queued);
      if (traced) {
        const std::int64_t t1 = now_ns();
        rp.span(Span::Kind::kInject, t0, t1);
        r.inject_s += static_cast<double>(t1 - t0) * 1e-9;
        rp.maybe_snapshot(t1);
      }
      retry.clear();
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (!queued[i]) retry.push_back(chunk[i]);
      }
      if (retry.empty()) continue;
      // Lossless: retry the refused frames (in order, so each queue keeps
      // its frame order) before the next burst.
      r.retried += retry.size();
      const std::int64_t wait0 = traced ? now_ns() : 0;
      std::int64_t inside = 0;
      while (!retry.empty()) {
        std::this_thread::yield();
        const std::int64_t a = traced ? now_ns() : 0;
        p.inject_burst(retry, queued);
        if (traced) {
          const std::int64_t b = now_ns();
          rp.span(Span::Kind::kInject, a, b);
          inside += b - a;
        }
        std::size_t keep = 0;
        for (std::size_t i = 0; i < retry.size(); ++i) {
          if (!queued[i]) retry[keep++] = retry[i];
        }
        retry.resize(keep);
      }
      if (traced) {
        const std::int64_t wait1 = now_ns();
        rp.span(Span::Kind::kRetryWait, wait0, wait1);
        r.inject_s += static_cast<double>(inside) * 1e-9;
        r.retry_wait_s += static_cast<double>(wait1 - wait0 - inside) * 1e-9;
        rp.maybe_snapshot(wait1);
      }
    }
    rp.end([](std::size_t, std::int64_t) {});
  }
  check_truth(r, trace, workload);
  return r;
}

RepResult run_open_loop(const Trace& trace, const Workload& workload, bool traced) {
  RepResult r;
  r.open_loop = true;
  {
    Replay rp(trace, traced, r);
    RuruPipeline& p = rp.pipeline();
    const std::size_t burst = rp.burst();
    bool* queued = rp.queued();
    const double period_ns = static_cast<double>(burst) * 1e9 / workload.offered_fps;
    const std::span<const RxFrame> frames(trace.frames);
    r.late_us.reserve(frames.size() / burst + 1);
    rp.begin();
    const std::int64_t t0 = now_ns() + 1'000'000;  // first burst due 1 ms out
    const auto due_of_burst = [t0, period_ns](std::size_t k) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
    };
    // The generator spins until each burst is due.  Sleeping instead
    // measured worse: a halted vCPU wakes late when the host is busy.
    for (std::size_t k = 0, off = 0; off < frames.size(); ++k, off += burst) {
      const std::int64_t due = due_of_burst(k);
      std::int64_t now = now_ns();
      rp.maybe_snapshot(now);
      while (now < due) {
        cpu_relax();
        now = now_ns();
      }
      r.late_us.push_back(static_cast<double>(now - due) * 1e-3);
      const std::span<const RxFrame> chunk = frames.subspan(off, std::min(burst, frames.size() - off));
      p.inject_burst(chunk, queued);
      if (traced) {
        const std::int64_t t1 = now_ns();
        rp.span(Span::Kind::kInject, now, t1);
        r.inject_s += static_cast<double>(t1 - now) * 1e-9;
      }
      for (std::size_t i = 0; i < chunk.size(); ++i) r.lost += queued[i] ? 0 : 1;
    }
    r.latency_us.reserve(trace.handshakes);
    rp.end([&](std::size_t frame, std::int64_t arrival_ns) {
      r.latency_us.push_back(static_cast<double>(arrival_ns - due_of_burst(frame / burst)) * 1e-3);
    });
  }
  check_truth(r, trace, workload);
  return r;
}

}  // namespace ruru::e2e
