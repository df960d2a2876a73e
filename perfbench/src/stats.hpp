#pragma once
// Order statistics and /proc readers shared by the harness and the
// stage-isolated replay.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ruru::e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0,1] (0 for an empty input).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static CpuTimes read() {
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    // user nice system idle iowait irq softirq steal (guest counted in user)
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      if (!(in >> v)) break;
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }

  /// Share of CPU time stolen by the hypervisor between two readings.
  [[nodiscard]] static double steal_frac(const CpuTimes& a, const CpuTimes& b) {
    const std::uint64_t total = b.total - a.total;
    return total == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / static_cast<double>(total);
  }
};

/// A "Vm*:" field of /proc/self/status in KiB (0 when absent).
inline std::uint64_t proc_status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      std::uint64_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS, so a later VmHWM reads the peak since
/// now.  False when the kernel refuses the write.
inline bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace ruru::e2e
