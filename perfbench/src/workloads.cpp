#include "workloads.hpp"

#include <algorithm>
#include <chrono>

#include "capture/scenarios.hpp"

namespace ruru::e2e {

namespace {

// Trace sizes: each mix is ~250-300k frames, so one saturated replay
// takes a few hundred milliseconds and a run fits several replays.
constexpr Duration kTraceSpan = Duration::from_sec(10.0);

// handshake_mix: the production shape, ~15 frames per handshake sample.
constexpr double kMixFlowsPerSec = 2000.0;
// bulk_skip: ~150 small response segments per flow, ~300 frames per sample.
constexpr double kBulkFlowsPerSec = 100.0;
constexpr double kBulkSegments = 150.0;
constexpr std::size_t kBulkPayload = 64;
// synflood: 40 spoofed SYNs per benign flow for the whole trace.
constexpr double kFloodBenignPerSec = 500.0;
constexpr double kFloodSynsPerBenign = 40.0;

TrafficModel make_model(const Workload& w, std::uint64_t seed, double scale) {
  if (w.name == "handshake_mix") {
    return scenarios::transpacific(seed, kMixFlowsPerSec * scale, kTraceSpan);
  }
  if (w.name == "bulk_skip") {
    TrafficConfig cfg;
    cfg.seed = seed;
    cfg.flows_per_sec = kBulkFlowsPerSec * scale;
    cfg.duration = kTraceSpan;
    cfg.syn_loss_prob = 0.002;
    cfg.handshake_abandon_prob = 0.005;
    cfg.udp_background_frac = 0.05;
    cfg.mean_data_segments = kBulkSegments;
    cfg.data_payload = kBulkPayload;
    return TrafficModel(cfg, scenarios::transpacific_routes());
  }
  const double benign = kFloodBenignPerSec * scale;
  return scenarios::syn_flood(seed, benign, benign * kFloodSynsPerBenign, kTraceSpan, Timestamp{},
                              kTraceSpan);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"handshake_mix", 300'000.0, true},
      {"bulk_skip", 300'000.0, true},
      {"synflood", 300'000.0, false},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t Trace::frame_at(Timestamp t) const {
  const auto it = std::lower_bound(frames.begin(), frames.end(), t,
                                   [](const RxFrame& f, Timestamp v) { return f.rx_time < v; });
  if (it == frames.end() || it->rx_time != t) return frames.size();
  return static_cast<std::size_t>(it - frames.begin());
}

Trace generate_trace(const Workload& workload, std::uint64_t seed, bool smoke) {
  const auto t0 = std::chrono::steady_clock::now();
  TrafficModel model = make_model(workload, seed, smoke ? 0.1 : 1.0);
  Trace trace;
  std::vector<std::size_t> offsets;
  std::vector<Timestamp> times;
  while (auto f = model.next()) {
    offsets.push_back(trace.arena.size());
    times.push_back(f->timestamp);
    trace.arena.insert(trace.arena.end(), f->frame.begin(), f->frame.end());
  }
  trace.arena.shrink_to_fit();
  trace.bytes = trace.arena.size();
  trace.frames.reserve(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::size_t end = i + 1 < offsets.size() ? offsets[i + 1] : trace.arena.size();
    trace.frames.push_back(
        {std::span<const std::uint8_t>(trace.arena.data() + offsets[i], end - offsets[i]),
         times[i]});
  }
  trace.flows = model.truth().size();
  trace.handshakes = static_cast<std::uint64_t>(
      std::count_if(model.truth().begin(), model.truth().end(),
                    [](const FlowTruth& t) { return t.handshake_completes; }));
  trace.flood_syns = model.flood_syns_emitted();
  trace.generate_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return trace;
}

std::vector<SiteSpec> scenario_sites() {
  std::vector<SiteSpec> specs;
  const auto convert = [&specs](const scenarios::Site& s) {
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
  return specs;
}

}  // namespace ruru::e2e
