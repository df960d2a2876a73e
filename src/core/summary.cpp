#include <iomanip>
#include <sstream>

#include "core/pipeline.hpp"

namespace ruru {

std::string PipelineSummary::to_string() const {
  std::ostringstream out;
  out << "rx=" << nic.rx_packets << " pkts (" << std::fixed << std::setprecision(1)
      << static_cast<double>(nic.rx_bytes) / 1e6 << " MB)"
      << ", drops[no_mbuf=" << nic.dropped_no_mbuf << " qfull=" << nic.dropped_queue_full
      << " oversize=" << nic.dropped_oversize << " misrouted=" << nic.dropped_misrouted
      << "], tcp=" << workers.parse_status[0] << ", fast_skip=" << workers.fast_path_skips
      << ", syn=" << tracker.syn_seen << " (retx=" << tracker.syn_retransmissions
      << "), samples=" << tracker.samples_emitted << ", bus[pub=" << bus_published
      << " drop=" << bus_dropped << "], enriched=" << enriched
      << ", tsdb_points=" << tsdb_points << ", alerts=" << alerts;
  return out.str();
}

}  // namespace ruru
