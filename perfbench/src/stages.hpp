#pragma once
// Stage-isolated replay: the workload's own frames, LatencySamples and
// EnrichedSamples fed on one thread through each layer's public
// functions, configured as the pipeline configures them.  Each figure is
// a layer's self time per item, free of queueing and of the other
// threads — set it beside the full-pipeline figures to see what a layer
// costs versus what it waits for.

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace ruru::e2e {

struct StageResult {
  /// (metric name, median ns per item over the passes), in report order.
  std::vector<std::pair<std::string, double>> ns_per_item;
  std::uint64_t samples = 0;  ///< LatencySamples the isolated workers produced
  std::uint64_t syns = 0;     ///< SYNs the isolated workers reported
  std::string failure;        ///< empty when every stage ran as expected
};

/// Runs every stage for about `budget_s` seconds in total.
[[nodiscard]] StageResult run_stages(const Trace& trace, double budget_s);

}  // namespace ruru::e2e
