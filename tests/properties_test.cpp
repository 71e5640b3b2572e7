// Cross-cutting invariants of the MIO problem and the bitset algebra —
// properties that must hold for any input, checked on randomised sweeps.
#include <gtest/gtest.h>

#include "bitset/ewah.hpp"
#include "bitset/roaring.hpp"
#include "core/mio_engine.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

// ---------------------------------------------------------------------------
// Problem-level properties
// ---------------------------------------------------------------------------

class MioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ObjectSet MakeSet() const {
    return testing::MakeRandomObjects(40, 3, 10, 30.0, GetParam(), 5.0);
  }
};

TEST_P(MioPropertyTest, ScoresAreMonotoneInR) {
  // Growing r can only add interactions: tau_r(o) <= tau_r'(o) for r <= r',
  // object-wise — and hence the winner's score is monotone too.
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> prev(set.size(), 0);
  for (double r : {1.0, 2.5, 4.0, 6.0, 9.0}) {
    std::vector<std::uint32_t> cur = testing::OracleScores(set, r);
    for (ObjectId i = 0; i < set.size(); ++i) {
      EXPECT_GE(cur[i], prev[i]) << "object " << i << " r=" << r;
    }
    prev = std::move(cur);
  }
}

TEST_P(MioPropertyTest, EngineWinnerMonotoneInR) {
  ObjectSet set = MakeSet();
  MioEngine engine(set);
  std::uint32_t prev = 0;
  for (double r : {1.0, 2.5, 4.0, 6.0, 9.0}) {
    std::uint32_t best = engine.Query(r).best().score;
    EXPECT_GE(best, prev) << "r=" << r;
    prev = best;
  }
}

TEST_P(MioPropertyTest, ScoreSumIsEvenAndBounded) {
  // tau counts symmetric pairs: the sum over all objects is twice the
  // interacting-pair count, so it is even and at most n(n-1).
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> tau = testing::OracleScores(set, 5.0);
  std::uint64_t sum = 0;
  for (std::uint32_t t : tau) sum += t;
  EXPECT_EQ(sum % 2, 0u);
  EXPECT_LE(sum, static_cast<std::uint64_t>(set.size()) * (set.size() - 1));
}

TEST_P(MioPropertyTest, DuplicatingTheWinnerRaisesEveryNeighbor) {
  // Appending an exact copy of the winner adds one interaction partner to
  // each of its partners (and the copy interacts with the winner).
  ObjectSet set = MakeSet();
  MioEngine engine(set);
  QueryResult before = engine.Query(5.0);
  if (before.best().score == 0) GTEST_SKIP();

  ObjectSet bigger;
  for (const Object& o : set) bigger.Add(o);
  bigger.Add(set[before.best().id]);
  MioEngine engine2(bigger);
  QueryResult after = engine2.Query(5.0);
  // The duplicated winner now also interacts with its twin.
  EXPECT_GE(after.best().score, before.best().score + 1);
}

TEST_P(MioPropertyTest, TopKIsPrefixOfTopKPlusOne) {
  ObjectSet set = MakeSet();
  MioEngine engine(set);
  QueryOptions opt3;
  opt3.k = 3;
  QueryOptions opt5;
  opt5.k = 5;
  std::vector<ScoredObject> top3 = engine.Query(5.0, opt3).topk;
  std::vector<ScoredObject> top5 = engine.Query(5.0, opt5).topk;
  ASSERT_GE(top5.size(), top3.size());
  for (std::size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i].score, top5[i].score) << i;  // scores agree prefix-wise
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MioPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Bitset algebra laws (differentially, EWAH and Roaring)
// ---------------------------------------------------------------------------

class BitsetAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void Fill(PlainBitset* p, double density, std::size_t universe,
            std::uint64_t salt) const {
    Pcg32 rng(GetParam() * 1000 + salt);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.NextDouble() < density) p->Set(i);
    }
  }
};

TEST_P(BitsetAlgebraTest, EwahLaws) {
  PlainBitset pa, pb, pc;
  Fill(&pa, 0.1, 5000, 1);
  Fill(&pb, 0.3, 5000, 2);
  Fill(&pc, 0.02, 9000, 3);
  Ewah a = Ewah::FromPlain(pa), b = Ewah::FromPlain(pb),
       c = Ewah::FromPlain(pc);

  // Commutativity and associativity of OR.
  EXPECT_TRUE(Ewah::Or(a, b) == Ewah::Or(b, a));
  EXPECT_TRUE(Ewah::Or(Ewah::Or(a, b), c) == Ewah::Or(a, Ewah::Or(b, c)));
  // Distributivity: a & (b | c) == (a & b) | (a & c).
  EXPECT_TRUE(Ewah::And(a, Ewah::Or(b, c)) ==
              Ewah::Or(Ewah::And(a, b), Ewah::And(a, c)));
  // Inclusion-exclusion on cardinalities.
  EXPECT_EQ(Ewah::Or(a, b).Count() + Ewah::And(a, b).Count(),
            a.Count() + b.Count());
  // AndNot decomposition: a == (a & b) | (a & ~b).
  EXPECT_TRUE(Ewah::Or(Ewah::And(a, b), Ewah::AndNot(a, b)) == a);
  // Xor as symmetric difference.
  EXPECT_TRUE(Ewah::Xor(a, b) ==
              Ewah::Or(Ewah::AndNot(a, b), Ewah::AndNot(b, a)));
  // Idempotence.
  EXPECT_TRUE(Ewah::Or(a, a) == a);
  EXPECT_TRUE(Ewah::And(a, a) == a);
  EXPECT_EQ(Ewah::AndNot(a, a).Count(), 0u);
}

TEST_P(BitsetAlgebraTest, RoaringLaws) {
  PlainBitset pa, pb;
  Fill(&pa, 0.05, 150000, 4);
  Fill(&pb, 0.2, 100000, 5);
  Roaring a = Roaring::FromPlain(pa), b = Roaring::FromPlain(pb);

  EXPECT_TRUE(Roaring::Or(a, b) == Roaring::Or(b, a));
  EXPECT_EQ(Roaring::Or(a, b).Count() + Roaring::And(a, b).Count(),
            a.Count() + b.Count());
  EXPECT_TRUE(Roaring::Or(Roaring::And(a, b), Roaring::AndNot(a, b)) == a);
  EXPECT_TRUE(Roaring::And(a, a) == a);
  EXPECT_EQ(Roaring::AndNot(a, a).Count(), 0u);
}

TEST_P(BitsetAlgebraTest, CodecsAgreeWithEachOther) {
  PlainBitset pa, pb;
  Fill(&pa, 0.15, 20000, 6);
  Fill(&pb, 0.08, 30000, 7);
  Ewah ea = Ewah::FromPlain(pa), eb = Ewah::FromPlain(pb);
  Roaring ra = Roaring::FromPlain(pa), rb = Roaring::FromPlain(pb);

  EXPECT_TRUE(Ewah::Or(ea, eb).ToPlain() == Roaring::Or(ra, rb).ToPlain());
  EXPECT_TRUE(Ewah::And(ea, eb).ToPlain() == Roaring::And(ra, rb).ToPlain());
  EXPECT_TRUE(Ewah::AndNot(ea, eb).ToPlain() ==
              Roaring::AndNot(ra, rb).ToPlain());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetAlgebraTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace mio
