#pragma once
// Shared helpers for the experiment benches (DESIGN.md §4).

#include <algorithm>
#include <cmath>
#include <vector>

#include "capture/scenarios.hpp"
#include "capture/traffic_model.hpp"
#include "driver/nic.hpp"
#include "geo/world.hpp"
#include "util/random.hpp"

namespace ruru::bench {

/// One frame as a one-frame inject_burst() (SimNic and RuruPipeline
/// take bursts only); true when the frame was queued.
template <class Port>
bool inject_one(Port& port, std::span<const std::uint8_t> frame, Timestamp rx_time) {
  const RxFrame rx{frame, rx_time};
  return port.inject_burst({&rx, 1}) == 1;
}

/// Zipf(s) sampler over ranks [0, n) via a precomputed CDF.  Sampling is
/// a binary search, so pregenerate sequences outside timed loops.
class ZipfSampler {
 public:
  explicit ZipfSampler(std::size_t n, double s = 1.0) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  [[nodiscard]] std::size_t next(Pcg32& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

inline World scenario_world() {
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
  auto world = build_world(specs);
  if (!world.ok()) std::abort();
  return std::move(world).value();
}

/// Drains a traffic model into a frame vector (pre-generation keeps the
/// generator's cost out of the measured loop).
inline std::vector<TimedFrame> pregenerate(TrafficModel& model) {
  std::vector<TimedFrame> frames;
  while (auto f = model.next()) frames.push_back(std::move(*f));
  return frames;
}

}  // namespace ruru::bench
