#pragma once
// One-frame injection for tests: SimNic and RuruPipeline take bursts
// only, so a test that feeds frames one at a time wraps each in a
// one-frame span.

#include <cstdint>
#include <span>

#include "driver/nic.hpp"

namespace ruru {

/// True when the frame was queued.  `Port` is SimNic or RuruPipeline.
template <class Port>
bool inject_one(Port& port, std::span<const std::uint8_t> frame, Timestamp rx_time) {
  const RxFrame rx{frame, rx_time};
  return port.inject_burst({&rx, 1}) == 1;
}

}  // namespace ruru
