#pragma once
// Single-writer statistics cell.
//
// Every per-stage stats struct (NicStats, WorkerStats, TrackerStats, ...)
// is written by exactly one thread — the stage that owns it — but is now
// also read live by the metrics snapshot thread.  A plain uint64 would be
// a data race; a fetch_add would put a lock prefix on the per-packet
// path.  StatCell threads the needle: the writer does a relaxed
// load + store (no RMW, same cost as a plain increment on x86), readers
// do a relaxed load and never see a torn value.
//
// The single-writer contract is the point: two threads incrementing the
// same cell can lose updates.  Shard per writer (one stats struct per
// queue/worker, merged on read) exactly as the stages already do.
//
// Field tables.  Each stats struct is declared once, next to a constexpr
// table with one StatField row per cell: the exported metric name and an
// accessor for the cell.  Everything that walks a struct field by field
// derives from that table instead of re-listing the fields: metric
// registration (one counter per row, summed across shards), cross-shard
// merge(), PipelineSummary, and the oracle tests.  A static_assert beside
// each table (stat_table_complete) fails the build when a cell is added
// to the struct but not to its table, or listed twice.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace ruru {

class StatCell {
 public:
  constexpr StatCell() = default;
  constexpr StatCell(std::uint64_t v) : v_(v) {}  // NOLINT: implicit by design

  // Copy via relaxed loads/stores so the stat structs keep value
  // semantics (summaries copy them wholesale off the hot path).
  StatCell(const StatCell& other) : v_(other.load()) {}
  StatCell& operator=(const StatCell& other) {
    store(other.load());
    return *this;
  }
  StatCell& operator=(std::uint64_t v) {
    store(v);
    return *this;
  }

  StatCell& operator++() {
    store(load() + 1);
    return *this;
  }
  StatCell& operator--() {
    store(load() - 1);
    return *this;
  }
  StatCell& operator+=(std::uint64_t n) {
    store(load() + n);
    return *this;
  }
  StatCell& operator-=(std::uint64_t n) {
    store(load() - n);
    return *this;
  }

  operator std::uint64_t() const { return load(); }  // NOLINT: drop-in for uint64 fields

  [[nodiscard]] std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

inline std::ostream& operator<<(std::ostream& os, const StatCell& c) { return os << c.load(); }

/// One row of a stats struct's field table.  The row carries the metric
/// name rather than deriving it from the field, because some exported
/// names are irregular (InflowStats::rate_limited is
/// "flow.inflow_rate_limited").
template <class S>
struct StatField {
  const char* name;
  StatCell& (*cell)(S&);

  /// The same cell of a const struct (the accessor only forms a
  /// reference; nothing is written).
  [[nodiscard]] std::uint64_t read(const S& s) const {
    return cell(const_cast<S&>(s)).load();
  }
};

/// Row accessor for member `M` (a StatCell), or for element I of `M`
/// when `M` is an array of cells: cell_at<&WorkerStats::polls>,
/// cell_at<&WorkerStats::parse_status, 0>.
template <auto M, std::size_t... I>
  requires(sizeof...(I) <= 1)
constexpr StatCell& cell_at(auto& s) {
  if constexpr (sizeof...(I) == 0) {
    return s.*M;
  } else {
    return (s.*M)[(I + ...)];
  }
}

/// True when `table` names every cell of S exactly once: as many rows as
/// S holds cells (S is nothing but StatCells), no cell listed twice.
template <class S, std::size_t N>
constexpr bool stat_table_complete(const std::array<StatField<S>, N>& table) {
  if (N * sizeof(StatCell) != sizeof(S)) return false;
  S probe{};
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (&table[i].cell(probe) == &table[j].cell(probe)) return false;
    }
  }
  return true;
}

/// total += shard, cell by cell.
template <class S, std::size_t N>
void merge(S& total, const S& shard, const std::array<StatField<S>, N>& table) {
  for (const StatField<S>& f : table) f.cell(total) += f.read(shard);
}

}  // namespace ruru
