#pragma once
// One replay of a trace through a freshly built RuruPipeline, driven only
// through the pipeline's public API: set up (world + construction +
// start), inject from this thread, finish(), then check the outputs.
//
// Two phases:
//  * saturated — lossless replay: frames the rings refuse are retried
//    before the next burst, so per-queue order is kept;
//  * open loop — bursts are injected on a fixed schedule at the
//    workload's offered rate and never retried.  Latency is measured from
//    the scheduled send time of the burst that carried a handshake's
//    completing ACK to that sample's arrival at the benchmark's sink.
//
// A traced replay additionally records spans around every call into the
// pipeline, turns on the pipeline's latency histograms, and samples the
// stage gauges every millisecond; the end-to-end figures come from
// untraced replays.

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads.hpp"

namespace ruru::e2e {

/// The benchmark's thread budget on a 4-vCPU host: this injector thread,
/// two worker lcores and one enrichment thread, all unpinned.
[[nodiscard]] PipelineConfig bench_config(bool traced);

/// A span recorded by the harness around one of its calls into the pipeline.
struct Span {
  enum class Kind : std::uint8_t { kInject, kRetryWait, kFinish, kSink };
  Kind kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct RepResult {
  bool open_loop = false;
  double setup_s = 0.0;
  double wall_s = 0.0;   ///< first inject_burst to the return of finish()
  double drain_s = 0.0;  ///< inside finish()
  double rss_mib = 0.0;  ///< peak RSS growth from before set-up to after finish()
  std::uint64_t frames = 0;
  std::uint64_t lost = 0;     ///< open loop: frames whose queued[] flag stayed false
  std::uint64_t retried = 0;  ///< saturated: frames that needed at least one retry

  std::uint64_t sink_samples = 0;
  std::uint64_t samples_emitted = 0;
  std::uint64_t bus_published = 0;  ///< latency samples (alert messages excluded)
  std::uint64_t bus_dropped = 0;
  std::uint64_t digest = 0;  ///< order-independent digest of the sink samples
  std::uint64_t alerts = 0;

  // Open loop.
  std::vector<double> latency_us;  ///< per sink sample
  std::vector<double> late_us;     ///< per burst: actual - scheduled send time

  // Traced replays.
  double inject_s = 0.0;      ///< time inside inject_burst
  double retry_wait_s = 0.0;  ///< time between a refused burst and its last retry
  double worker_busy = 0.0;   ///< 1 - d(empty_polls)/d(polls), both workers summed
  double enricher_busy = 0.0; ///< enrich.batch_ns sum / wall
  double skip_frac = 0.0;
  double table_drop_frac = 0.0;
  double bus_drop_frac = 0.0;
  double batch_fill = 0.0;
  double cache_hit_frac = 0.0;
  std::vector<double> ring_occupancy;  ///< per snapshot, per queue
  std::vector<double> bus_pending;     ///< per snapshot
  std::vector<Span> spans;

  std::string failure;  ///< empty when every output check passed
};

[[nodiscard]] RepResult run_saturated(const Trace& trace, const Workload& workload, bool traced);
[[nodiscard]] RepResult run_open_loop(const Trace& trace, const Workload& workload, bool traced);

}  // namespace ruru::e2e
