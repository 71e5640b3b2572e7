// The sandwich property: for every object, tau_low <= tau <= tau_upp
// (Lemmas 1 and 2), and the pruning theorem never discards the answer.
#include <gtest/gtest.h>

#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

struct BoundsCase {
  std::size_t n;
  std::size_t m_min, m_max;
  double domain;
  double cluster_sigma;
  double r;
  std::uint64_t seed;
};

class BoundsTest : public ::testing::TestWithParam<BoundsCase> {};

TEST_P(BoundsTest, LowerAndUpperSandwichExactScores) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  BiGrid grid(set, c.r);
  grid.Build();
  LowerBoundResult lb = LowerBounding(grid, false);
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, nullptr, nullptr);

  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_LE(lb.tau_low[i], exact[i]) << "object " << i << " r=" << c.r;
    EXPECT_GE(ub.tau_upp[i], exact[i]) << "object " << i << " r=" << c.r;
  }
  EXPECT_EQ(lb.tau_low_max,
            *std::max_element(lb.tau_low.begin(), lb.tau_low.end()));
}

TEST_P(BoundsTest, PruningKeepsTheAnswer) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::uint32_t best = testing::MaxScore(exact);

  BiGrid grid(set, c.r);
  grid.Build();
  LowerBoundResult lb = LowerBounding(grid, false);
  UpperBoundResult ub =
      UpperBounding(grid, lb.tau_low_max, nullptr, nullptr, nullptr);

  // Theorem 2: every object with the best exact score must survive.
  for (ObjectId i = 0; i < set.size(); ++i) {
    if (exact[i] == best) {
      EXPECT_NE(std::find(ub.candidates.begin(), ub.candidates.end(), i),
                ub.candidates.end())
          << "answer pruned: object " << i;
    }
  }
  // Candidate queue is sorted by descending upper bound.
  for (std::size_t idx = 1; idx < ub.candidates.size(); ++idx) {
    EXPECT_GE(ub.tau_upp[ub.candidates[idx - 1]],
              ub.tau_upp[ub.candidates[idx]]);
  }
}

TEST_P(BoundsTest, ExactScoreMatchesOracleForAllCandidates) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  BiGrid grid(set, c.r);
  grid.Build();
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, nullptr, nullptr);
  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, nullptr),
              exact[i])
        << "object " << i;
  }
  (void)ub;
}

// With a threshold, ExactScore may stop early — but only for a candidate
// that cannot score above it. One scratch serves every call, as in
// Verification, so stale state between candidates would show here.
TEST_P(BoundsTest, ExactScoreAbandonsOnlyAtOrBelowTheThreshold) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  BiGrid grid(set, c.r);
  grid.Build();
  VerifyScratch scratch;
  std::size_t abandoned = 0;
  for (ObjectId i = 0; i < set.size(); ++i) {
    VerifyWork full;
    EXPECT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, &full, true,
                         &scratch),
              exact[i])
        << "object " << i;
    EXPECT_EQ(full.abandoned, 0u) << "object " << i;

    for (long long threshold :
         {static_cast<long long>(exact[i]) - 1,
          static_cast<long long>(exact[i]),
          static_cast<long long>(exact[i]) + 5}) {
      VerifyWork work;
      const std::uint32_t got = ExactScore(grid, i, nullptr, nullptr, nullptr,
                                           &work, true, &scratch, nullptr,
                                           threshold);
      if (static_cast<long long>(exact[i]) > threshold) {
        EXPECT_EQ(got, exact[i]) << "object " << i << " t=" << threshold;
        EXPECT_EQ(work.abandoned, 0u) << "object " << i << " t=" << threshold;
      } else if (work.abandoned > 0) {
        // The returned bound lies between the exact score and threshold.
        EXPECT_GE(got, exact[i]) << "object " << i << " t=" << threshold;
        EXPECT_LE(static_cast<long long>(got), threshold)
            << "object " << i << " t=" << threshold;
      } else {
        EXPECT_EQ(got, exact[i]) << "object " << i << " t=" << threshold;
      }
      abandoned += work.abandoned;
    }
  }
  EXPECT_GT(abandoned, 0u) << "the threshold path never abandoned";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsTest,
    ::testing::Values(
        BoundsCase{25, 5, 15, 25.0, 5.0, 4.0, 1},
        BoundsCase{25, 5, 15, 25.0, 5.0, 7.0, 1},
        BoundsCase{25, 5, 15, 25.0, 5.0, 10.0, 1},
        BoundsCase{40, 2, 6, 30.0, 3.0, 2.5, 2},   // fractional r
        BoundsCase{15, 20, 40, 12.0, 6.0, 1.0, 3}, // dense, small r
        BoundsCase{50, 3, 8, 300.0, 2.0, 5.0, 4},  // sparse
        BoundsCase{30, 4, 10, 18.0, 8.0, 0.7, 5},  // r < 1 (ceil = 1)
        BoundsCase{20, 5, 10, 20.0, 4.0, 6.0, 6}));

TEST(TopKTrackerTest, ThresholdAndReplacement) {
  TopKTracker t(2);
  EXPECT_EQ(t.Threshold(), -1);
  t.Offer(0, 5);
  EXPECT_EQ(t.Threshold(), -1);  // not full yet
  t.Offer(1, 3);
  EXPECT_EQ(t.Threshold(), 3);
  t.Offer(2, 4);  // replaces score-3 entry
  EXPECT_EQ(t.Threshold(), 4);
  t.Offer(3, 1);  // too low: ignored
  auto sorted = t.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].score, 5u);
  EXPECT_EQ(sorted[1].score, 4u);
}

TEST(TopKTrackerTest, TiesKeepIncumbent) {
  TopKTracker t(1);
  t.Offer(7, 5);
  t.Offer(9, 5);  // same score: incumbent stays (arbitrary tie-break)
  EXPECT_EQ(t.Sorted()[0].id, 7u);
}

TEST(SortCandidatesTest, DescendingWithIdTies) {
  std::vector<std::uint32_t> upp = {3, 9, 9, 1};
  std::vector<ObjectId> cand = {0, 1, 2, 3};
  SortCandidates(upp, &cand);
  EXPECT_EQ(cand, (std::vector<ObjectId>{1, 2, 0, 3}));
}

}  // namespace
}  // namespace mio
