#include "object/spatial_sort.hpp"

#include <gtest/gtest.h>

#include "baseline/nested_loop.hpp"
#include "bitset/bitset_stats.hpp"
#include "core/bigrid.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

TEST(SpatialSortTest, PreservesMultisetOfObjects) {
  ObjectSet set = testing::MakeRandomObjects(50, 3, 8, 100.0, 1);
  ObjectSet sorted = SortObjectsSpatially(set);
  ASSERT_EQ(sorted.size(), set.size());
  EXPECT_EQ(sorted.Stats().nm, set.Stats().nm);
  // Every original object appears exactly once (match by first point,
  // which is unique for continuous random data).
  std::vector<double> orig, got;
  for (const Object& o : set) orig.push_back(o.points[0].x);
  for (const Object& o : sorted) got.push_back(o.points[0].x);
  std::sort(orig.begin(), orig.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(orig, got);
}

TEST(SpatialSortTest, ScoresInvariantUnderReorder) {
  ObjectSet set = testing::MakeRandomObjects(40, 4, 8, 30.0, 2);
  ObjectSet sorted = SortObjectsSpatially(set);
  std::vector<std::uint32_t> a = NestedLoopScores(set, 5.0);
  std::vector<std::uint32_t> b = NestedLoopScores(sorted, 5.0);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);  // same multiset of scores, ids permuted
}

TEST(SpatialSortTest, NeighborsGetNearbyIds) {
  // Two well-separated clusters with interleaved original ids: after the
  // sort, each cluster's objects must occupy a contiguous id range.
  ObjectSet set;
  for (int i = 0; i < 10; ++i) {
    double base = (i % 2 == 0) ? 0.0 : 1000.0;  // interleave clusters
    set.Add({{base + i * 0.1, 0, 0}});
  }
  ObjectSet sorted = SortObjectsSpatially(set);
  // First five ids in one cluster, last five in the other.
  bool first_low = sorted[0].points[0].x < 500.0;
  for (ObjectId i = 0; i < 5; ++i) {
    EXPECT_EQ(sorted[i].points[0].x < 500.0, first_low) << i;
    EXPECT_EQ(sorted[5 + i].points[0].x < 500.0, !first_low) << i;
  }
}

TEST(SpatialSortTest, ImprovesBitsetCompression) {
  // Clustered data with shuffled ids: sorting must not worsen (and should
  // typically improve) the compressed footprint of BIGrid cell bitsets.
  ObjectSet clustered = testing::MakeRandomObjects(400, 4, 8, 400.0, 3, 2.0);
  // Shuffle ids deterministically.
  ObjectSet shuffled;
  Pcg32 rng(9);
  std::vector<ObjectId> order(clustered.size());
  for (ObjectId i = 0; i < clustered.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(static_cast<std::uint32_t>(i))]);
  }
  for (ObjectId i : order) shuffled.Add(clustered[i]);

  auto compressed_bytes = [](const ObjectSet& s) {
    BiGrid grid(s, 4.0);
    grid.Build();
    return grid.CompressionStats().compressed_bytes;
  };
  std::size_t shuffled_bytes = compressed_bytes(shuffled);
  std::size_t sorted_bytes = compressed_bytes(SortObjectsSpatially(shuffled));
  EXPECT_LE(sorted_bytes, shuffled_bytes);
}

TEST(SpatialSortTest, EdgeCases) {
  EXPECT_EQ(SortObjectsSpatially(ObjectSet{}).size(), 0u);
  ObjectSet one;
  one.Add({{1, 2, 3}});
  ObjectSet sorted = SortObjectsSpatially(one);
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_TRUE(sorted[0].points[0] == Point({1, 2, 3}));
  // All objects at the same location: any order is fine, nothing crashes.
  ObjectSet same;
  for (int i = 0; i < 5; ++i) same.Add({{7, 7, 7}});
  EXPECT_EQ(SortObjectsSpatially(same).size(), 5u);
}

}  // namespace
}  // namespace mio
