#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "grid/spatial_hash_grid.hpp"
#include "object/object_set.hpp"
#include "object/sampling.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

TEST(ObjectSetTest, StatsMatchContents) {
  ObjectSet set;
  set.Add({{0, 0, 0}, {1, 1, 1}});
  set.Add({{5, 5, 5}, {6, 6, 6}, {7, 7, 7}, {8, 8, 8}});
  DatasetStats s = set.Stats();
  EXPECT_EQ(s.n, 2u);
  EXPECT_EQ(s.nm, 6u);
  EXPECT_DOUBLE_EQ(s.m, 3.0);
  EXPECT_EQ(s.min_points, 2u);
  EXPECT_EQ(s.max_points, 4u);
  EXPECT_FALSE(s.ToString().empty());

  set.Add({});  // an empty object is the new minimum
  s = set.Stats();
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.nm, 6u);
  EXPECT_EQ(s.min_points, 0u);
  EXPECT_EQ(s.max_points, 4u);
}

TEST(ObjectSetTest, BoundsCoverEverything) {
  ObjectSet set;
  set.Add({{-1, 0, 2}});
  set.Add({{10, -5, 8}});
  Aabb box = set.Bounds();
  EXPECT_DOUBLE_EQ(box.min.x, -1);
  EXPECT_DOUBLE_EQ(box.min.y, -5);
  EXPECT_DOUBLE_EQ(box.max.x, 10);
  EXPECT_DOUBLE_EQ(box.max.z, 8);
}

TEST(ObjectSetTest, EmptyStats) {
  ObjectSet set;
  DatasetStats s = set.Stats();
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.nm, 0u);
}

TEST(ObjectSetTest, ViewsIndexTheFlatStore) {
  ObjectSet set;
  EXPECT_EQ(set.Add({{0, 0, 0}, {1, 1, 1}}), 0u);
  EXPECT_EQ(set.Add({}), 1u);  // an object may hold no points
  EXPECT_EQ(set.Add({{5, 5, 5}, {6, 6, 6}, {7, 7, 7}}), 2u);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.NumPoints(), 5u);
  EXPECT_EQ(set.Offset(0), 0u);
  EXPECT_EQ(set.Offset(1), 2u);
  EXPECT_EQ(set.Offset(2), 2u);
  EXPECT_EQ(set.Offset(3), 5u);

  // Each view is its slice of the one points array.
  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i].points.data(), set.points().data() + set.Offset(i));
    EXPECT_EQ(set[i].NumPoints(), set.Offset(i + 1) - set.Offset(i));
    EXPECT_FALSE(set[i].HasTimes());
  }
  EXPECT_TRUE(set[2].points[1] == Point({6, 6, 6}));
  EXPECT_EQ(set[1].NumPoints(), 0u);

  // Range-for yields the same views, in id order.
  std::size_t visited = 0, points = 0;
  for (const Object& o : set) {
    EXPECT_EQ(o.points.data(), set[static_cast<ObjectId>(visited)].points.data());
    points += o.NumPoints();
    ++visited;
  }
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(points, 5u);
}

TEST(ObjectSetTest, TimesAreAllOrNone) {
  ObjectSet untimed;
  untimed.Add({{0, 0, 0}});
  EXPECT_FALSE(untimed.HasTimes());
  EXPECT_TRUE(untimed.times().empty());
  EXPECT_DOUBLE_EQ(untimed.MaxTime(), 0.0);

  ObjectSet set;
  set.Add({{0, 0, 0}, {1, 0, 0}});          // untimed so far
  set.Add({{2, 0, 0}}, {7.5});              // first times: earlier get 0
  set.Add({{3, 0, 0}, {4, 0, 0}});          // no times: padded with 0
  set.Add({{5, 0, 0}, {6, 0, 0}}, {9.0});   // short times: padded with 0
  ASSERT_TRUE(set.HasTimes());
  ASSERT_EQ(set.times().size(), set.NumPoints());
  const std::vector<double> want = {0, 0, 7.5, 0, 0, 9.0, 0};
  EXPECT_EQ(std::vector<double>(set.times().begin(), set.times().end()),
            want);
  for (ObjectId i = 0; i < set.size(); ++i) {
    ASSERT_EQ(set[i].times.size(), set[i].NumPoints());
    EXPECT_EQ(set[i].times.data(), set.times().data() + set.Offset(i));
  }
  EXPECT_DOUBLE_EQ(set[1].times[0], 7.5);
  EXPECT_DOUBLE_EQ(set.MaxTime(), 9.0);
}

TEST(ObjectSetTest, AdoptsAFlatStore) {
  ObjectSet set({{0, 0, 1}, {2, 0, 1}, {4, 0, 1}}, {1.0, 2.0, 3.0},
                {0, 1, 3});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[1].NumPoints(), 2u);
  EXPECT_DOUBLE_EQ(set[1].times[1], 3.0);
  EXPECT_TRUE(set.IsPlanar());
  EXPECT_DOUBLE_EQ(set.MaxTime(), 3.0);

  // A copy built object by object from the views is the same store.
  ObjectSet copy;
  for (const Object& o : set) copy.Add(o);
  EXPECT_TRUE(std::equal(copy.points().begin(), copy.points().end(),
                         set.points().begin(), set.points().end()));
  EXPECT_TRUE(std::equal(copy.times().begin(), copy.times().end(),
                         set.times().begin(), set.times().end()));
  EXPECT_EQ(copy.Offset(2), 3u);
}

TEST(ObjectSetTest, IsPlanarNeedsOneSharedZ) {
  ObjectSet empty;
  EXPECT_FALSE(empty.IsPlanar());
  ObjectSet flat;
  flat.Add({{0, 0, 2.5}, {1, 7, 2.5}});
  flat.Add({{9, 9, 2.5}});
  EXPECT_TRUE(flat.IsPlanar());
  flat.Add({{3, 3, 2.5000001}});
  EXPECT_FALSE(flat.IsPlanar());
}

TEST(ObjectSetTest, MemoryUsageCountsTheFlatStore) {
  ObjectSet empty;
  EXPECT_EQ(empty.MemoryUsageBytes(), 0u);
  std::vector<Point> pts(100, Point{1, 2, 3});
  std::vector<double> times(100, 4.0);
  std::vector<std::size_t> offsets = {0, 40, 100};
  ObjectSet set(pts, times, offsets);
  EXPECT_EQ(set.MemoryUsageBytes(), 100 * sizeof(Point) +
                                        100 * sizeof(double) +
                                        3 * sizeof(std::size_t));
  ObjectSet untimed(pts, {}, offsets);
  EXPECT_EQ(untimed.MemoryUsageBytes(),
            100 * sizeof(Point) + 3 * sizeof(std::size_t));
}

TEST(ObjectSetTest, MovedFromSetIsEmpty) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 10.0, 3);
  ObjectSet moved = std::move(set);
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_EQ(set.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(set.empty());   // NOLINT(bugprone-use-after-move)
}

TEST(SamplingTest, RespectsRate) {
  ObjectSet set = testing::MakeRandomObjects(100, 5, 10, 50.0, 1);
  ObjectSet half = SampleObjects(set, 0.5, 7);
  EXPECT_EQ(half.size(), 50u);
  ObjectSet all = SampleObjects(set, 1.0, 7);
  EXPECT_EQ(all.size(), 100u);
  ObjectSet none = SampleObjects(set, 0.0, 7);
  EXPECT_EQ(none.size(), 0u);
}

TEST(SamplingTest, DeterministicPerSeed) {
  ObjectSet set = testing::MakeRandomObjects(60, 3, 6, 50.0, 2);
  ObjectSet a = SampleObjects(set, 0.4, 11);
  ObjectSet b = SampleObjects(set, 0.4, 11);
  ASSERT_EQ(a.size(), b.size());
  for (ObjectId i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].NumPoints(), b[i].NumPoints());
    EXPECT_TRUE(a[i].points[0] == b[i].points[0]);
  }
}

TEST(SamplingTest, SamplesAreDistinctOriginals) {
  // Check no object is duplicated: sampled first-points must be unique
  // (almost surely, for continuous random data).
  ObjectSet set = testing::MakeRandomObjects(80, 2, 2, 1000.0, 3, 0.1);
  ObjectSet s = SampleObjects(set, 0.5, 13);
  std::set<double> first_coords;
  for (const Object& o : s) first_coords.insert(o.points[0].x);
  EXPECT_EQ(first_coords.size(), s.size());
}

TEST(SpatialHashGridTest, AllPointsRetrievableNearby) {
  ObjectSet set = testing::MakeRandomObjects(10, 5, 10, 20.0, 4);
  SpatialHashGrid grid(2.5);
  grid.Build(set);
  EXPECT_EQ(grid.NumEntries(), set.Stats().nm);
  EXPECT_GT(grid.NumCells(), 0u);
  // Every point must see itself via the neighbourhood scan.
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      bool found = false;
      grid.ForEachEntryNear(p, [&](const SpatialHashGrid::Entry& e) {
        if (e.obj == i && e.p == p) {
          found = false;  // keep scanning unless exact match
          found = true;
          return false;   // stop early
        }
        return true;
      });
      EXPECT_TRUE(found);
    }
  }
}

TEST(SpatialHashGridTest, NeighborhoodCoversRadius) {
  // Points within the cell width must be reachable through the 27-cell
  // neighbourhood scan.
  SpatialHashGrid grid(3.0);
  grid.Insert(0, Point{1.0, 1.0, 1.0});
  grid.Insert(1, Point{3.5, 1.0, 1.0});  // next cell over, within 3.0
  int seen = 0;
  grid.ForEachEntryNear(Point{1.0, 1.0, 1.0}, [&](const auto&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
}

TEST(SpatialHashGridTest, CellAtFindsExactCell) {
  SpatialHashGrid grid(1.0);
  grid.Insert(3, Point{5.5, 5.5, 5.5});
  const auto* cell = grid.CellAt(CellKey{5, 5, 5});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->size(), 1u);
  EXPECT_EQ((*cell)[0].obj, 3u);
  EXPECT_EQ(grid.CellAt(CellKey{9, 9, 9}), nullptr);
  EXPECT_GT(grid.MemoryUsageBytes(), 0u);
}

}  // namespace
}  // namespace mio
