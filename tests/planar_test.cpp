// The 2-D specialisation (paper footnote 1): planar datasets get the
// r/sqrt(2) small grid — sound, tighter lower bounds, same answers.
#include <gtest/gtest.h>

#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/mio_engine.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

ObjectSet MakePlanar(std::size_t n, std::uint64_t seed, double z = 0.0) {
  ObjectSet src = testing::MakeRandomObjects(n, 4, 10, 30.0, seed, 5.0);
  ObjectSet flat;
  for (const Object& o : src) {
    std::vector<Point> copy(o.points.begin(), o.points.end());
    for (Point& p : copy) p.z = z;
    flat.Add(copy);
  }
  return flat;
}

TEST(PlanarTest, DetectionRequiresConstantZ) {
  EXPECT_TRUE(MakePlanar(10, 1).IsPlanar());
  EXPECT_TRUE(MakePlanar(10, 1, 7.5).IsPlanar());  // any constant plane
  ObjectSet mixed = testing::MakeRandomObjects(10, 3, 5, 20.0, 2);
  EXPECT_FALSE(mixed.IsPlanar());
  EXPECT_FALSE(ObjectSet{}.IsPlanar());
}

TEST(PlanarTest, SameCellPairsStillWithinR) {
  // Worst case in the plane: opposite corners of a width-r/sqrt(2) cell.
  double r = 6.0;
  double w = SmallGridWidth2D(r);
  Point a{0.0, 0.0, 5.0};
  Point b{w - 1e-9, w - 1e-9, 5.0};
  EXPECT_EQ(KeyForWidth(a, w), KeyForWidth(b, w));
  EXPECT_LE(Distance(a, b), r);
}

TEST(PlanarTest, EngineUsesPlanarGridAndStaysExact) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ObjectSet set = MakePlanar(40, seed);
    std::vector<std::uint32_t> exact = testing::OracleScores(set, 5.0);
    MioEngine engine(set);
    EXPECT_TRUE(engine.planar());
    QueryResult res = engine.Query(5.0);
    EXPECT_EQ(res.best().score, testing::MaxScore(exact)) << seed;
  }
}

TEST(PlanarTest, PlanarLowerBoundsAtLeastAsTight) {
  ObjectSet set = MakePlanar(60, 5);
  double r = 5.0;
  BiGrid planar(set, r, /*planar=*/true);
  planar.Build();
  BiGrid generic(set, r, /*planar=*/false);
  generic.Build();
  LowerBoundResult lb2d = LowerBounding(planar, false);
  LowerBoundResult lb3d = LowerBounding(generic, false);
  // Wider cells capture more certain pairs: the 2-D max lower bound
  // cannot be worse, and each per-object bound stays a valid lower bound.
  EXPECT_GE(lb2d.tau_low_max, lb3d.tau_low_max);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, r);
  std::uint64_t sum2d = 0, sum3d = 0;
  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_LE(lb2d.tau_low[i], exact[i]) << i;
    sum2d += lb2d.tau_low[i];
    sum3d += lb3d.tau_low[i];
  }
  EXPECT_GE(sum2d, sum3d);
}

TEST(PlanarTest, LabelsStillValidInPlanarMode) {
  ObjectSet set = MakePlanar(40, 6);
  std::uint32_t best = testing::MaxScore(testing::OracleScores(set, 4.0));
  MioEngine engine(set);
  QueryOptions opt;
  opt.record_labels = true;
  opt.use_labels = true;
  EXPECT_EQ(engine.Query(4.0, opt).best().score, best);
  EXPECT_EQ(engine.Query(4.0, opt).best().score, best);  // with labels
}

TEST(PlanarTest, ParallelPlanarMatchesOracle) {
  ObjectSet set = MakePlanar(50, 7);
  std::uint32_t best = testing::MaxScore(testing::OracleScores(set, 5.0));
  QueryOptions opt;
  opt.threads = 4;
  MioEngine engine(set);
  EXPECT_EQ(engine.Query(5.0, opt).best().score, best);
}

}  // namespace
}  // namespace mio
