// SeriesIndex: identity, filters and canonical forms on interned ids.
// The contract under test is "legacy TagSet semantics, zero strings on
// the hot path": tag insertion order must not split a series, filters
// must match exactly like the legacy tags_match, and unknown strings must
// short-circuit to impossible instead of crashing or allocating.

#include "tsdb/series_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tsdb/legacy_tsdb.hpp"

namespace ruru {
namespace {

TagSet tags2(const std::string& a, const std::string& av, const std::string& b,
             const std::string& bv) {
  TagSet t;
  t.add(a, av).add(b, bv);
  return t;
}

TEST(SeriesIndex, SameSeriesSameId) {
  SeriesIndex idx;
  const SeriesId a = idx.resolve("total_ms", tags2("src_city", "AKL", "dst_city", "LA"));
  const SeriesId b = idx.resolve("total_ms", tags2("src_city", "AKL", "dst_city", "LA"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(SeriesIndex, TagOrderDoesNotSplitSeries) {
  SeriesIndex idx;
  const SeriesId a = idx.resolve("m", tags2("src_city", "AKL", "dst_city", "LA"));
  const SeriesId b = idx.resolve("m", tags2("dst_city", "LA", "src_city", "AKL"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(idx.canonical(a), "dst_city=LA,src_city=AKL");
}

TEST(SeriesIndex, DistinctIdentitiesGetDistinctIds) {
  SeriesIndex idx;
  const SeriesId a = idx.resolve("m", tags2("k1", "v1", "k2", "v2"));
  const SeriesId b = idx.resolve("m", tags2("k1", "v2", "k2", "v1"));  // values swapped
  const SeriesId c = idx.resolve("other", tags2("k1", "v1", "k2", "v2"));
  const SeriesId d = idx.resolve("m", TagSet{});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(idx.size(), 4u);
}

TEST(SeriesIndex, FilterMatchesLikeLegacyTagSet) {
  SeriesIndex idx;
  const TagSet series_tags = tags2("src_city", "AKL", "dst_city", "LA");
  const SeriesId sid = idx.resolve("m", series_tags);

  const auto check = [&](const TagSet& filter) {
    const TagFilter f = idx.make_filter(filter);
    EXPECT_FALSE(f.impossible);
    EXPECT_EQ(idx.matches(sid, f), tags_match(series_tags, filter))
        << "filter: " << filter.canonical();
  };
  check(TagSet{});                                       // empty matches everything
  check(TagSet{}.add("src_city", "AKL"));                // subset
  check(tags2("src_city", "AKL", "dst_city", "LA"));     // exact
  check(TagSet{}.add("src_city", "LA"));                 // wrong value (strings known)
}

TEST(SeriesIndex, UnknownFilterStringIsImpossible) {
  SeriesIndex idx;
  idx.resolve("m", tags2("src_city", "AKL", "dst_city", "LA"));
  const TagFilter f = idx.make_filter(TagSet{}.add("src_city", "never_interned"));
  EXPECT_TRUE(f.impossible);
}

TEST(SeriesIndex, FindNameReturnsNotFoundForUnseen) {
  SeriesIndex idx;
  EXPECT_EQ(idx.find_name("ghost"), SeriesIndex::kNotFound);
  idx.resolve("total_ms", TagSet{}.add("src_city", "AKL"));
  EXPECT_NE(idx.find_name("total_ms"), SeriesIndex::kNotFound);
  EXPECT_NE(idx.find_name("src_city"), SeriesIndex::kNotFound);
  EXPECT_NE(idx.find_name("AKL"), SeriesIndex::kNotFound);
  EXPECT_EQ(idx.find_name("ghost"), SeriesIndex::kNotFound);
}

TEST(SeriesIndex, TagValueIdFollowsCanonicalFirstMatch) {
  SeriesIndex idx;
  const SeriesId sid = idx.resolve("m", tags2("src_city", "AKL", "dst_city", "LA"));
  const std::uint32_t key = idx.find_name("src_city");
  ASSERT_NE(key, SeriesIndex::kNotFound);
  const std::uint32_t vid = idx.tag_value_id(sid, key);
  ASSERT_NE(vid, SeriesIndex::kNotFound);
  EXPECT_EQ(idx.name(vid), "AKL");
  EXPECT_EQ(idx.tag_value_id(sid, idx.find_name("m")), SeriesIndex::kNotFound);
}

TEST(SeriesIndex, ResolveLikeCopiesTagIdentity) {
  SeriesIndex idx;
  const SeriesId src = idx.resolve("total_ms", tags2("src_city", "AKL", "dst_city", "LA"));
  const SeriesId dst = idx.resolve_like(src, "total_ms_1m");
  EXPECT_NE(src, dst);
  EXPECT_EQ(idx.canonical(dst), idx.canonical(src));
  EXPECT_EQ(idx.name(idx.measurement_id(dst)), "total_ms_1m");
  // Idempotent: the re-keyed identity resolves to the same id again.
  EXPECT_EQ(idx.resolve_like(src, "total_ms_1m"), dst);
  EXPECT_EQ(idx.resolve("total_ms_1m", tags2("src_city", "AKL", "dst_city", "LA")), dst);
}

TEST(SeriesIndex, SeriesOfAndMeasurementsEnumerate) {
  SeriesIndex idx;
  const SeriesId a = idx.resolve("m1", TagSet{}.add("k", "a"));
  const SeriesId b = idx.resolve("m1", TagSet{}.add("k", "b"));
  const SeriesId c = idx.resolve("m2", TagSet{}.add("k", "a"));

  std::vector<std::uint32_t> mids;
  idx.measurements(mids);
  ASSERT_EQ(mids.size(), 2u);

  std::vector<SeriesId> out;
  idx.series_of(idx.measurement_id(a), out);
  EXPECT_EQ(out, (std::vector<SeriesId>{a, b}));
  out.clear();
  idx.series_of(idx.measurement_id(c), out);
  EXPECT_EQ(out, (std::vector<SeriesId>{c}));
}

TEST(SeriesIndex, ManySeriesSurviveTableGrowth) {
  SeriesIndex idx;
  std::vector<SeriesId> ids;
  for (int i = 0; i < 5'000; ++i) {
    ids.push_back(idx.resolve("m", TagSet{}.add("src_city", "city" + std::to_string(i))));
  }
  EXPECT_EQ(idx.size(), 5'000u);
  // Every identity still resolves to its original id after rehashing.
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_EQ(idx.resolve("m", TagSet{}.add("src_city", "city" + std::to_string(i))),
              ids[static_cast<std::size_t>(i)]);
  }
  // Dense, never reused.
  std::vector<SeriesId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
}  // namespace ruru
