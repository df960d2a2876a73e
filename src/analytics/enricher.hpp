#pragma once
// Geo + AS enrichment of raw latency samples.
//
// Each enrichment worker owns one Enricher: range-DB lookups front-ended
// by a per-worker set-associative FlatCache of POD entries (traffic is
// heavy-tailed over hosts), then the original IPs are dropped.  IPv4 and
// IPv6 both go through the cache, keyed on the full address bits plus a
// family tag so a hit is always exact.  Negative lookups are cached too —
// an unroutable scanner hammering the tap misses the DB once, not every
// packet.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "analytics/enriched_sample.hpp"
#include "flow/latency_sample.hpp"
#include "geo/as_db.hpp"
#include "geo/flat_cache.hpp"
#include "geo/geo6_db.hpp"
#include "geo/geo_db.hpp"
#include "util/stat_cell.hpp"

namespace ruru {

/// Exact cache identity of one endpoint address: full 128 bits plus a
/// family tag, so a v4 value can never alias a v6 address (or vice
/// versa) into a false hit.
struct GeoCacheKey {
  std::uint64_t lo = 0;  ///< v4: the 32-bit value; v6: bytes 0..7
  std::uint64_t hi = 0;  ///< v4: 0; v6: bytes 8..15
  std::uint64_t tag = 0;  ///< 1 == v4, 2 == v6

  friend bool operator==(const GeoCacheKey&, const GeoCacheKey&) = default;

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t x = lo ^ (hi * 0x9E3779B97F4A7C15ULL) ^ (tag << 56);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
  }

  static GeoCacheKey of(const IpAddress& addr) {
    GeoCacheKey k;
    if (addr.is_v4()) {
      k.lo = addr.v4.value();
      k.tag = 1;
    } else {
      const auto& b = addr.v6.bytes();
      std::memcpy(&k.lo, b.data(), 8);
      std::memcpy(&k.hi, b.data() + 8, 8);
      k.tag = 2;
    }
    return k;
  }
};

/// Single-writer cells (the owning enrichment thread): readable live by
/// the metrics snapshot thread without tearing.  The cache itself keeps
/// no counters — these are the one source of truth for hit/miss totals.
struct EnricherStats {
  StatCell enriched = 0;
  StatCell unlocated = 0;  ///< at least one endpoint had no geo record
  StatCell cache_hits = 0;
  StatCell cache_misses = 0;
};

/// `enriched` is exported as enrich.processed: samples enriched, the
/// enrichment stage's progress counter.
inline constexpr auto kEnricherStatFields = std::to_array<StatField<EnricherStats>>({
    {"enrich.processed", cell_at<&EnricherStats::enriched>},
    {"enrich.unlocated", cell_at<&EnricherStats::unlocated>},
    {"enrich.cache_hits", cell_at<&EnricherStats::cache_hits>},
    {"enrich.cache_misses", cell_at<&EnricherStats::cache_misses>},
});
static_assert(stat_table_complete(kEnricherStatFields));

class Enricher {
 public:
  Enricher(const GeoDatabase& geo, const AsDatabase& as, std::size_t cache_capacity = 8192)
      : geo_(geo), as_(as), cache_(cache_capacity) {}

  /// Optional IPv6 table (not owned; must outlive the enricher).
  /// Without it, v6 endpoints are marked unlocated.
  void set_geo6(const Geo6Database* geo6) { geo6_ = geo6; }

  [[nodiscard]] EnrichedSample enrich(const LatencySample& sample);

  /// Enriches a decoded batch, appending to `out` (caller clears/reuses
  /// the vector across batches, so steady state does not allocate).
  /// Cache sets and geo radix buckets for samples a few slots ahead are
  /// prefetched while the current sample is resolved.
  void enrich_batch(std::span<const LatencySample> batch, std::vector<EnrichedSample>& out);

  [[nodiscard]] GeoInfo locate(const IpAddress& addr);

  [[nodiscard]] const EnricherStats& stats() const { return stats_; }

 private:
  [[nodiscard]] GeoInfo locate_uncached(const IpAddress& addr) const;

  const GeoDatabase& geo_;
  const AsDatabase& as_;
  const Geo6Database* geo6_ = nullptr;
  FlatCache<GeoCacheKey, GeoInfo> cache_;
  EnricherStats stats_;
};

}  // namespace ruru
