// Structural tests of the BIGrid index: cell contents, key lists,
// postings, the neighbour table, lazy neighbourhood bitsets, and
// serial/parallel build equivalence.
#include "core/bigrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "test_utils.hpp"

namespace mio {
namespace {

TEST(BiGridTest, WidthsFollowDefinitions) {
  ObjectSet set = testing::MakeRandomObjects(5, 3, 5, 20.0, 1);
  BiGrid grid(set, 4.3);
  EXPECT_DOUBLE_EQ(grid.small_width(), SmallGridWidth(4.3));
  EXPECT_DOUBLE_EQ(grid.large_width(), 5.0);
}

TEST(BiGridTest, SmallCellBitsMatchBruteForce) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 25.0, 2);
  double r = 5.0;
  BiGrid grid(set, r);
  grid.Build();

  // Recompute cell membership by hand.
  std::map<std::tuple<int, int, int>, std::set<ObjectId>> want;
  double w = SmallGridWidth(r);
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      CellKey k = KeyForWidth(p, w);
      want[{k.x, k.y, k.z}].insert(i);
    }
  }
  // Cells are indexed in ascending key order (the map's order, since
  // tuples compare like CellKey: x, then y, then z). Every cell counts;
  // only cells shared by two or more objects store their bitset.
  ASSERT_EQ(grid.NumSmallCells(), want.size());
  std::uint32_t cell = 0;
  std::size_t shared = 0;
  for (const auto& [kt, objs] : want) {
    if (objs.size() >= 2) {
      ++shared;
      EXPECT_EQ(grid.SmallBits(cell).Count(), objs.size());
      for (ObjectId o : objs) EXPECT_TRUE(grid.SmallBits(cell).Test(o));
    } else {
      EXPECT_EQ(grid.SmallBits(cell).NumWords(), 0u);
    }
    ++cell;
  }
  EXPECT_GT(shared, 0u);
  EXPECT_LT(shared, want.size());
}

TEST(BiGridTest, KeyListsAreExactlyMultiObjectCells) {
  ObjectSet set = testing::MakeRandomObjects(15, 5, 10, 20.0, 3);
  double r = 4.0;
  BiGrid grid(set, r);
  grid.Build();

  double w = SmallGridWidth(r);
  std::map<std::tuple<int, int, int>, std::set<ObjectId>> cells;
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      CellKey k = KeyForWidth(p, w);
      cells[{k.x, k.y, k.z}].insert(i);
    }
  }
  // Key lists hold cell indices; cell c is the c-th key in sorted order
  // (SmallCellBitsMatchBruteForce).
  std::vector<std::tuple<int, int, int>> key_of;
  for (const auto& entry : cells) key_of.push_back(entry.first);
  ASSERT_EQ(grid.NumSmallCells(), key_of.size());
  for (ObjectId i = 0; i < set.size(); ++i) {
    std::set<std::tuple<int, int, int>> want;
    for (const auto& [kt, objs] : cells) {
      if (objs.size() >= 2 && objs.count(i)) want.insert(kt);
    }
    std::set<std::tuple<int, int, int>> got;
    for (std::uint32_t c : grid.KeyList(i)) {
      ASSERT_LT(c, key_of.size());
      got.insert(key_of[c]);
    }
    EXPECT_EQ(got, want) << "object " << i;
    EXPECT_EQ(grid.KeyList(i).size(), got.size()) << "duplicate keys";
  }
}

TEST(BiGridTest, LargeCellPostingsHoldEveryPoint) {
  ObjectSet set = testing::MakeRandomObjects(10, 4, 8, 15.0, 4);
  double r = 3.0;
  BiGrid grid(set, r);
  grid.Build();
  const LargeGridData& g = grid.large();

  for (ObjectId i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      const Point& p = set[i].points[j];
      const std::uint32_t cell = grid.LargeCellOf(i, j);
      ASSERT_NE(cell, kNoCell);
      EXPECT_EQ(cell, g.FindCell(KeyForWidth(p, grid.large_width())));
      EXPECT_TRUE(g.bits[cell].Test(i));
      bool present = false;
      for (std::uint32_t q = g.cell_runs[cell]; q < g.cell_runs[cell + 1];
           ++q) {
        if (g.run_obj[q] != i) continue;
        PostingView posting = g.PostingAt(q);
        for (std::size_t pi = 0; pi < posting.size; ++pi) {
          if (posting[pi] == p) present = true;
        }
      }
      EXPECT_TRUE(present);
    }
  }
  EXPECT_EQ(g.NumPostingPoints(), set.Stats().nm);
  for (std::uint32_t c = 0; c < g.NumCells(); ++c) {
    if (c > 0) {
      EXPECT_TRUE(g.keys[c - 1] < g.keys[c]);
    }
    if (g.cell_octants[c] != kNoCell) continue;
    // Small cells: one run per object, ascending (build order).
    for (std::uint32_t q = g.cell_runs[c] + 1; q < g.cell_runs[c + 1]; ++q) {
      EXPECT_LT(g.run_obj[q - 1], g.run_obj[q]);
    }
  }
}

TEST(BiGridTest, PostingOfAbsentObjectIsEmpty) {
  // Every run belongs to an object of its cell's bitset, and every object
  // of the bitset owns at least one run there: an absent object has none.
  ObjectSet set = testing::MakeRandomObjects(3, 2, 2, 5.0, 5);
  BiGrid grid(set, 2.0);
  grid.Build();
  const LargeGridData& g = grid.large();
  for (std::uint32_t c = 0; c < g.NumCells(); ++c) {
    std::set<ObjectId> owners;
    for (std::uint32_t q = g.cell_runs[c]; q < g.cell_runs[c + 1]; ++q) {
      EXPECT_TRUE(g.bits[c].Test(g.run_obj[q]));
      EXPECT_FALSE(g.PostingAt(q).empty());
      owners.insert(g.run_obj[q]);
    }
    EXPECT_EQ(owners.size(), g.bits[c].Count());
  }
}

TEST(BiGridTest, NeighbourTableMatchesForEachNeighbor) {
  // Coordinates straddle zero, so the merge join runs across the sign of
  // every lattice axis.
  ObjectSet raw = testing::MakeRandomObjects(40, 3, 9, 12.0, 12, 3.0);
  ObjectSet set;
  for (const Object& o : raw) {
    std::vector<Point> shifted(o.points.begin(), o.points.end());
    for (Point& p : shifted) {
      p.x -= 6.0;
      p.y -= 6.0;
      p.z -= 6.0;
    }
    set.Add(shifted);
  }
  for (double r : {1.0, 2.0, 3.5}) {
    BiGrid grid(set, r);
    grid.Build();
    const LargeGridData& g = grid.large();
    for (std::uint32_t c = 0; c < g.NumCells(); ++c) {
      std::vector<std::uint32_t> want;
      ForEachNeighbor(g.keys[c], /*include_self=*/false,
                      [&](const CellKey& nk) {
                        const std::uint32_t nc = g.FindCell(nk);
                        if (nc != kNoCell) want.push_back(nc);
                      });
      std::span<const std::uint32_t> got = g.Neighbors(c);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << "r=" << r << " cell " << g.keys[c].ToString();
    }
  }
}

TEST(BiGridTest, EnsureAdjIsNeighborhoodUnion) {
  ObjectSet set = testing::MakeRandomObjects(12, 4, 8, 12.0, 6);
  double r = 3.0;
  BiGrid grid(set, r);
  grid.Build();
  const LargeGridData& g = grid.large();

  std::size_t isolated = 0;
  for (std::uint32_t cell = 0; cell < g.NumCells(); ++cell) {
    EXPECT_FALSE(g.adj[cell].Ready());
    const CellAdj& adj = grid.EnsureAdj(cell);
    ASSERT_TRUE(adj.Ready());

    PlainBitset want;
    ForEachNeighbor(g.keys[cell], true, [&](const CellKey& nk) {
      const std::uint32_t nc = g.FindCell(nk);
      if (nc != kNoCell) want.OrWith(g.bits[nc].ToPlain());
    });
    EXPECT_TRUE(adj.bits.ToPlain() == want);
    EXPECT_EQ(adj.count, want.Count());
    if (g.Neighbors(cell).empty()) {
      // Isolated: b_adj(c) = b(c), viewed in the pool, nothing owned.
      ++isolated;
      EXPECT_EQ(adj.bits.words(), g.bits[cell].words());
      EXPECT_EQ(adj.owned, nullptr);
    } else {
      EXPECT_EQ(adj.bits.words(), adj.owned.get());
    }
    // Second call is a memo hit (same object, no recompute).
    EXPECT_EQ(&grid.EnsureAdj(cell), &adj);
  }
  // The data exercises both kinds of cell.
  EXPECT_GT(isolated, 0u);
  EXPECT_LT(isolated, g.NumCells());
}

TEST(BiGridTest, NoEmptyCells) {
  ObjectSet set = testing::MakeRandomObjects(10, 3, 5, 30.0, 7);
  BiGrid grid(set, 4.0);
  grid.Build();
  const LargeGridData& g = grid.large();
  for (std::uint32_t c = 0; c < g.NumCells(); ++c) {
    EXPECT_LT(g.cell_runs[c], g.cell_runs[c + 1]);
    EXPECT_GT(g.bits[c].Count(), 0u);
  }
}

TEST(BiGridTest, RebuildReplacesTheGrid) {
  ObjectSet set = testing::MakeRandomObjects(15, 3, 6, 20.0, 13);
  BiGrid grid(set, 3.0);
  grid.Build(1, nullptr, /*build_groups=*/true);
  const std::size_t cells = grid.NumLargeCells();
  const std::size_t small_cells = grid.NumSmallCells();
  grid.Build(1, nullptr, /*build_groups=*/true);
  EXPECT_EQ(grid.NumLargeCells(), cells);
  EXPECT_EQ(grid.NumSmallCells(), small_cells);
  EXPECT_EQ(grid.large().NumPostingPoints(), set.Stats().nm);
  for (ObjectId i = 0; i < set.size(); ++i) {
    std::size_t grouped = 0;
    for (const PointGroup& g : grid.LargeGroups(i)) {
      grouped += g.point_idx.size();
    }
    EXPECT_EQ(grouped, set[i].NumPoints());
  }
}

TEST(BiGridTest, ParallelBuildMatchesSerial) {
  // Large enough that the radix sort splits into several chunks.
  ObjectSet set = testing::MakeRandomObjects(3000, 20, 40, 60.0, 8);
  double r = 4.5;
  BiGrid serial(set, r);
  serial.Build(1, nullptr, true);
  const LargeGridData& s = serial.large();
  for (int threads : {2, 4}) {
    BiGrid parallel(set, r);
    parallel.Build(threads, nullptr, true);
    const LargeGridData& p = parallel.large();
    ASSERT_EQ(parallel.NumSmallCells(), serial.NumSmallCells());
    ASSERT_EQ(parallel.NumLargeCells(), serial.NumLargeCells());

    // The same layout, array for array and pool word for word.
    EXPECT_TRUE(parallel.small().bits == serial.small().bits);
    for (ObjectId i = 0; i < set.size(); ++i) {
      std::span<const std::uint32_t> a = parallel.KeyList(i);
      std::span<const std::uint32_t> b = serial.KeyList(i);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "object " << i << " threads " << threads;
    }
    EXPECT_EQ(p.keys, s.keys);
    EXPECT_TRUE(p.bits == s.bits);
    EXPECT_EQ(p.cell_runs, s.cell_runs);
    EXPECT_EQ(p.run_obj, s.run_obj);
    EXPECT_EQ(p.run_start, s.run_start);
    EXPECT_EQ(p.xs, s.xs);
    EXPECT_EQ(p.ys, s.ys);
    EXPECT_EQ(p.zs, s.zs);
    EXPECT_EQ(p.cell_octants, s.cell_octants);
    EXPECT_EQ(p.oct_runs, s.oct_runs);
    EXPECT_EQ(p.oct_box, s.oct_box);
    EXPECT_EQ(p.nbr_begin, s.nbr_begin);
    EXPECT_EQ(p.nbr, s.nbr);
    EXPECT_EQ(p.point_cell, s.point_cell);

    // Groups match the serial ones and cover every point exactly once.
    for (ObjectId i = 0; i < set.size(); ++i) {
      const std::vector<PointGroup>& pg = parallel.LargeGroups(i);
      const std::vector<PointGroup>& sg = serial.LargeGroups(i);
      ASSERT_EQ(pg.size(), sg.size());
      std::size_t covered = 0;
      for (std::size_t k = 0; k < pg.size(); ++k) {
        EXPECT_EQ(pg[k].cell, sg[k].cell);
        EXPECT_EQ(pg[k].point_idx, sg[k].point_idx);
        covered += pg[k].point_idx.size();
      }
      EXPECT_EQ(covered, set[i].NumPoints());
    }
  }
}

TEST(BiGridTest, RadixSortedLayoutMatchesStableSort) {
  // Lattice coordinates that stress the radix digits: ranges straddling
  // zero, small-grid keys at the int32 extremes (large-grid keys then span
  // all four bytes too), and constant coordinates. Points sit inside
  // chosen small cells, a few objects per cell; at most 31 points keep
  // every large cell below the octant layout, so runs follow the sorted
  // entries directly.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  struct Case {
    const char* name;
    std::vector<std::int32_t> xs, ys, zs;  // candidate small-cell indices
  };
  const std::vector<Case> cases = {
      {"straddles zero", {-300, -129, -1, 0, 1, 255, 256}, {-2, 0, 1},
       {-70000, 0, 70000}},
      {"int32 extremes", {kMin + 2, -1, 0, kMax - 2}, {kMin + 2, kMax - 2},
       {0, 5}},
      {"constant y and z", {-5, -3, 0, 2, 4}, {7}, {-3}},
      {"one cell", {9}, {9}, {9}},
  };
  const double r = 1.0;
  const double ws = SmallGridWidth(r);
  for (const Case& tc : cases) {
    Pcg32 rng(41);
    auto pick = [&](const std::vector<std::int32_t>& v) {
      const std::int32_t k =
          v[rng.NextBounded(static_cast<std::uint32_t>(v.size()))];
      return (static_cast<double>(k) + 0.2 + 0.6 * rng.NextDouble()) * ws;
    };
    ObjectSet set;
    for (int i = 0; i < 15; ++i) {
      std::vector<Point> pts;
      const std::size_t m = 1 + (i % 3 == 0 ? 1 : 0);
      for (std::size_t j = 0; j < m; ++j) {
        pts.push_back(Point{pick(tc.xs), pick(tc.ys), pick(tc.zs)});
      }
      set.Add(pts);
    }
    ASSERT_LT(set.Stats().nm, kOctantMinPoints);
    BiGrid grid(set, r);
    grid.Build();
    const LargeGridData& g = grid.large();

    // Large grid: keys, runs and postings in stable-sorted entry order.
    struct Entry {
      CellKey key;
      ObjectId obj;
      Point p;
    };
    std::vector<Entry> large, small;
    for (ObjectId i = 0; i < set.size(); ++i) {
      for (const Point& p : set[i].points) {
        large.push_back({KeyForWidth(p, grid.large_width()), i, p});
        small.push_back({KeyForWidth(p, ws), i, p});
      }
    }
    auto by_key = [](const Entry& a, const Entry& b) { return a.key < b.key; };
    std::stable_sort(large.begin(), large.end(), by_key);
    std::stable_sort(small.begin(), small.end(), by_key);
    std::vector<CellKey> keys;
    std::vector<ObjectId> run_obj;
    std::vector<double> xs;
    for (std::size_t k = 0; k < large.size(); ++k) {
      const bool new_cell = k == 0 || !(large[k].key == large[k - 1].key);
      if (new_cell) keys.push_back(large[k].key);
      if (new_cell || large[k].obj != large[k - 1].obj) {
        run_obj.push_back(large[k].obj);
      }
      xs.push_back(large[k].p.x);
    }
    EXPECT_EQ(g.keys, keys) << tc.name;
    EXPECT_EQ(g.run_obj, run_obj) << tc.name;
    EXPECT_EQ(g.xs, xs) << tc.name;

    // Small grid: cell order, shared-cell bitsets and key lists.
    std::vector<std::set<ObjectId>> cells;
    for (std::size_t k = 0; k < small.size(); ++k) {
      if (k == 0 || !(small[k].key == small[k - 1].key)) cells.emplace_back();
      cells.back().insert(small[k].obj);
    }
    ASSERT_EQ(grid.NumSmallCells(), cells.size()) << tc.name;
    std::vector<std::vector<std::uint32_t>> lists(set.size());
    for (std::uint32_t c = 0; c < cells.size(); ++c) {
      if (cells[c].size() < 2) continue;
      std::set<ObjectId> got;
      grid.SmallBits(c).ForEachSetBit(
          [&](std::size_t o) { got.insert(static_cast<ObjectId>(o)); });
      EXPECT_EQ(got, cells[c]) << tc.name << " cell " << c;
      for (ObjectId o : cells[c]) lists[o].push_back(c);
    }
    for (ObjectId i = 0; i < set.size(); ++i) {
      std::span<const std::uint32_t> got = grid.KeyList(i);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), lists[i])
          << tc.name << " object " << i;
    }
  }
}

TEST(BiGridTest, MemoryBreakdownIsPopulated) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 20.0, 9);
  BiGrid grid(set, 4.0);
  grid.Build();
  MemoryBreakdown mb = grid.MemoryUsage();
  EXPECT_GT(mb.Total(), 0u);
  EXPECT_GE(mb.parts.size(), 3u);
}

TEST(BiGridTest, CompressionStatsCoverAllCells) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 20.0, 10);
  BiGrid grid(set, 4.0);
  grid.Build();
  BitsetCompressionStats stats = grid.CompressionStats();
  EXPECT_EQ(stats.num_bitsets, grid.NumSmallCells() + grid.NumLargeCells());
  EXPECT_GT(stats.uncompressed_bytes, 0u);
}

TEST(BiGridTest, BuildWithLabelsSkipsPrunedPoints) {
  ObjectSet set = testing::MakeRandomObjects(8, 4, 6, 15.0, 11);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  // Prune every point of object 0.
  for (auto& l : labels.labels[0]) l &= ~label::kMap;
  BiGrid grid(set, 4.0);
  grid.Build(1, &labels);
  // Object 0 must appear in no cell, and its points have no cell index.
  const EwahPool& large_bits = grid.large().bits;
  for (std::size_t c = 0; c < large_bits.size(); ++c) {
    EXPECT_FALSE(large_bits[c].Test(0));
  }
  for (std::uint32_t c = 0; c < grid.NumSmallCells(); ++c) {
    EXPECT_FALSE(grid.SmallBits(c).Test(0));
  }
  for (std::size_t j = 0; j < set[0].points.size(); ++j) {
    EXPECT_EQ(grid.LargeCellOf(0, j), kNoCell);
  }
  EXPECT_TRUE(grid.KeyList(0).empty());
}

}  // namespace
}  // namespace mio
