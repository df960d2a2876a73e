#pragma once
// The legacy uncompressed tag store: the test-side oracle for TsdbEngine.
//
// One mutex around std::map<measurement, std::map<canonical tags,
// vector<DataPoint>>>, with the canonical tag string looked up per write.
// Nothing in the pipeline runs it.  It answers every query the engine
// answers, with the same summarize() (sort, then accumulate), so the
// parity suite (engine_test.cpp) can require bit-identical results and
// the query-semantics suites run once against each store.  bench_tsdb
// links it as the ingest-while-querying baseline.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tsdb/tsdb.hpp"
#include "util/time.hpp"

namespace ruru {

/// Value of tag `key` in `tags`, if present.
std::optional<std::string> tag_value(const TagSet& tags, const std::string& key);

/// True when every (key,value) in `filter` appears in `tags`: the filter
/// semantics the engine's SeriesIndex::matches must reproduce.
bool tags_match(const TagSet& tags, const TagSet& filter);

struct DataPoint {
  Timestamp time;
  double value = 0.0;
};

class TimeSeriesDb {
 public:
  TimeSeriesDb() = default;

  void write(const std::string& measurement, const TagSet& tags, Timestamp time, double value);

  /// Stats over [t0, t1) for points whose tags match `filter`.
  [[nodiscard]] AggregateResult aggregate(const std::string& measurement, const TagSet& filter,
                                          Timestamp t0, Timestamp t1) const;

  /// Fixed-width windows over [t0, t1); empty windows are omitted.
  [[nodiscard]] std::vector<WindowResult> window_aggregate(const std::string& measurement,
                                                           const TagSet& filter, Timestamp t0,
                                                           Timestamp t1, Duration step) const;

  /// Group matching series by the value of `tag_key` ("indexing data on
  /// geo-location and AS information").
  [[nodiscard]] std::vector<GroupResult> group_by(const std::string& measurement,
                                                  const std::string& tag_key,
                                                  const TagSet& filter, Timestamp t0,
                                                  Timestamp t1) const;

  /// Drops all points older than `horizon` before `now`. Returns points
  /// dropped. When `only_measurements` is non-empty, other measurements
  /// are untouched (the keep-downsampled-drop-raw pattern).
  std::size_t enforce_retention(Timestamp now, Duration horizon,
                                const std::vector<std::string>& only_measurements = {});

  /// Continuous-query role: aggregates `src` into `window`-wide buckets
  /// per series (tags preserved) and writes `stat` ("mean"|"median"|
  /// "min"|"max"|"count"|"p99") of each bucket into measurement `dst`
  /// at the bucket start time. Typical use: keep raw samples short-term
  /// (enforce_retention) and 1-minute medians long-term. Returns points
  /// written.
  std::size_t downsample(const std::string& src, const std::string& dst, Duration window,
                         const std::string& stat = "mean");

  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::uint64_t points_written() const;

 private:
  struct Series {
    TagSet tags;
    std::vector<DataPoint> points;  // append-mostly, time-ordered-ish
    bool sorted = true;
  };

  static void collect(const Series& s, Timestamp t0, Timestamp t1, std::vector<double>& out);
  static AggregateResult summarize(std::vector<double>& values);

  mutable std::mutex mu_;
  // measurement -> canonical tags -> series
  std::map<std::string, std::map<std::string, Series>> data_;
  std::uint64_t points_ = 0;
};

}  // namespace ruru
