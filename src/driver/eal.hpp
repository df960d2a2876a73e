#pragma once
// Lcore launcher — the simdpdk analogue of rte_eal_remote_launch.
//
// Each "lcore" is a std::thread running a user poll loop until stop() is
// requested.  The launcher owns thread lifetime; destruction joins.
// Like DPDK's EAL coremask, a launch may carry a CPU affinity: the
// thread is pinned to that core before the loop body runs, so a worker's
// flow table and accumulators stay on one core's cache for the life of
// the run.  Pinning is best-effort — on hosts with fewer cores than the
// topology asks for (CI containers), the failure is counted and the
// thread runs unpinned rather than aborting the pipeline.

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace ruru {

/// No CPU affinity requested for a launch.
inline constexpr int kNoCpuPin = -1;

class LcoreLauncher {
 public:
  /// The loop body: called with (lcore_id, stop_flag). The body is
  /// expected to poll until the flag becomes true.
  using LcoreMain = std::function<void(std::uint32_t lcore_id, const std::atomic<bool>& stop)>;

  LcoreLauncher() = default;
  ~LcoreLauncher() { stop_and_join(); }

  LcoreLauncher(const LcoreLauncher&) = delete;
  LcoreLauncher& operator=(const LcoreLauncher&) = delete;

  /// Launch `main` on a new lcore; returns its id.  `pin_cpu` >= 0 pins
  /// the thread to that CPU before `main` runs (best-effort: a failed
  /// pin is counted in pin_failures() and the thread runs unpinned).
  std::uint32_t launch(LcoreMain main, int pin_cpu = kNoCpuPin);

  /// Signal all lcores to stop and join them. Idempotent.
  void stop_and_join();

  [[nodiscard]] std::size_t lcore_count() const { return threads_.size(); }
  /// Lcores whose affinity was applied successfully.
  [[nodiscard]] std::size_t pinned() const {
    return pinned_.load(std::memory_order_acquire);
  }
  /// Requested pins that could not be applied (bad CPU id, host too
  /// small, unsupported platform).
  [[nodiscard]] std::size_t pin_failures() const {
    return pin_failures_.load(std::memory_order_acquire);
  }

  /// Pin the *calling* thread to `cpu`. Exposed so threads the launcher
  /// did not start (the enrichment pool's) can join the pinned
  /// topology. Returns false when the pin could not be applied.
  static bool pin_self(int cpu);

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pinned_{0};
  std::atomic<std::size_t> pin_failures_{0};
  std::vector<std::thread> threads_;
};

}  // namespace ruru
