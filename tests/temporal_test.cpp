// Temporal MIO (Appendix B) against its brute-force oracle, including the
// delta = 0 special case.
#include "core/temporal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_utils.hpp"

namespace mio {
namespace {

struct TemporalCase {
  double r;
  double delta;
  double time_span;
  std::uint64_t seed;
};

class TemporalOracleTest : public ::testing::TestWithParam<TemporalCase> {};

TEST_P(TemporalOracleTest, MatchesBruteForce) {
  const TemporalCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(30, 4, 10, 25.0, c.seed, 5.0,
                                             /*with_times=*/true, c.time_span);
  std::vector<std::uint32_t> exact =
      TemporalBruteForceScores(set, c.r, c.delta);
  std::uint32_t best = testing::MaxScore(exact);

  QueryResult res = TemporalMioQuery(set, c.r, c.delta);
  ASSERT_FALSE(res.topk.empty());
  EXPECT_EQ(res.best().score, best);
  EXPECT_EQ(exact[res.best().id], best);
}

TEST_P(TemporalOracleTest, TopKMatchesBruteForce) {
  const TemporalCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(30, 4, 10, 25.0, c.seed + 50, 5.0,
                                             true, c.time_span);
  std::vector<std::uint32_t> exact =
      TemporalBruteForceScores(set, c.r, c.delta);
  std::vector<ScoredObject> want = TopKFromScores(exact, 4);

  QueryResult res = TemporalMioQuery(set, c.r, c.delta, 4);
  ASSERT_EQ(res.topk.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(res.topk[i].score, want[i].score) << "pos " << i;
    EXPECT_EQ(exact[res.topk[i].id], res.topk[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TemporalOracleTest,
    ::testing::Values(
        TemporalCase{4.0, 10.0, 100.0, 1},   // loose time constraint
        TemporalCase{4.0, 2.0, 100.0, 2},    // tight time constraint
        TemporalCase{8.0, 5.0, 50.0, 3},
        TemporalCase{4.0, 200.0, 100.0, 4},  // delta covers everything
        TemporalCase{2.0, 0.5, 20.0, 5}));   // very tight

TEST(TemporalTest, DeltaZeroRequiresExactTimestampMatch) {
  // Two objects at the same place; times match only between 0 and 1.
  ObjectSet set;
  set.Add({{0, 0, 0}, {1, 0, 0}}, {1.0, 2.0});
  set.Add({{0.1, 0, 0}, {1.1, 0, 0}}, {1.0, 5.0});
  set.Add({{0.2, 0, 0}}, {9.0});  // right place, wrong time

  std::vector<std::uint32_t> exact = TemporalBruteForceScores(set, 1.0, 0.0);
  EXPECT_EQ(exact, (std::vector<std::uint32_t>{1, 1, 0}));

  QueryResult res = TemporalMioQuery(set, 1.0, 0.0);
  EXPECT_EQ(res.best().score, 1u);
}

TEST(TemporalTest, DeltaZeroAgainstOracleRandomised) {
  // Coarse timestamps so exact collisions actually occur.
  ObjectSet base = testing::MakeRandomObjects(20, 4, 8, 15.0, 7, 4.0, true, 5.0);
  ObjectSet set;
  for (const Object& o : base) {
    std::vector<double> times(o.times.begin(), o.times.end());
    for (double& t : times) t = std::floor(t);  // times in {0..4}
    set.Add(o.points, times);
  }
  std::vector<std::uint32_t> exact = TemporalBruteForceScores(set, 5.0, 0.0);
  QueryResult res = TemporalMioQuery(set, 5.0, 0.0);
  EXPECT_EQ(res.best().score, testing::MaxScore(exact));
}

TEST(TemporalTest, LargeDeltaEqualsSpatialQuery) {
  // With delta >= time span, the temporal query degenerates to plain MIO.
  ObjectSet set = testing::MakeRandomObjects(25, 4, 8, 20.0, 8, 4.0, true, 10.0);
  std::vector<std::uint32_t> spatial = testing::OracleScores(set, 5.0);
  QueryResult res = TemporalMioQuery(set, 5.0, 1000.0);
  EXPECT_EQ(res.best().score, testing::MaxScore(spatial));
}

TEST(TemporalTest, EdgeCases) {
  ObjectSet empty;
  EXPECT_TRUE(TemporalMioQuery(empty, 5.0, 1.0).topk.empty());

  ObjectSet set = testing::MakeRandomObjects(5, 3, 5, 10.0, 9, 2.0, true, 10.0);
  EXPECT_TRUE(TemporalMioQuery(set, -1.0, 1.0).topk.empty());
  EXPECT_TRUE(TemporalMioQuery(set, 5.0, -1.0).topk.empty());
  // Single object: score zero.
  ObjectSet one;
  one.Add({{0, 0, 0}}, {1.0});
  QueryResult res = TemporalMioQuery(one, 5.0, 1.0);
  ASSERT_EQ(res.topk.size(), 1u);
  EXPECT_EQ(res.best().score, 0u);
}

TEST(TemporalTest, StatsPopulated) {
  ObjectSet set = testing::MakeRandomObjects(30, 4, 8, 20.0, 10, 4.0, true, 50.0);
  QueryResult res = TemporalMioQuery(set, 5.0, 10.0);
  EXPECT_GT(res.stats.cells_small, 0u);
  EXPECT_GT(res.stats.cells_large, 0u);
  EXPECT_GE(res.stats.num_candidates, res.stats.num_verified);
}

}  // namespace
}  // namespace mio
