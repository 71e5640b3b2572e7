#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/simple_grid.hpp"
#include "datagen/neuron_gen.hpp"
#include "datagen/powerlaw_gen.hpp"
#include "datagen/presets.hpp"
#include "datagen/trajectory_gen.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

using datagen::MakeBirdLike;
using datagen::MakeNeuronLike;
using datagen::MakePowerLaw;
using datagen::MakePreset;
using datagen::Preset;
using datagen::Scale;

TEST(NeuronGenTest, ShapeMatchesConfig) {
  datagen::NeuronConfig cfg;
  cfg.num_objects = 40;
  cfg.points_per_object = 100;
  ObjectSet set = MakeNeuronLike(cfg);
  DatasetStats s = set.Stats();
  EXPECT_EQ(s.n, 40u);
  EXPECT_NEAR(s.m, 100.0, 25.0);  // +-20% jitter by design
  EXPECT_GE(s.min_points, 4u);
}

TEST(NeuronGenTest, DeterministicPerSeed) {
  datagen::NeuronConfig cfg;
  cfg.num_objects = 10;
  cfg.points_per_object = 50;
  ObjectSet a = MakeNeuronLike(cfg);
  ObjectSet b = MakeNeuronLike(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (ObjectId i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].NumPoints(), b[i].NumPoints());
    EXPECT_TRUE(a[i].points.back() == b[i].points.back());
  }
  cfg.seed = 99;
  ObjectSet c = MakeNeuronLike(cfg);
  EXPECT_FALSE(a[0].points[1] == c[0].points[1]);
}

TEST(NeuronGenTest, ObjectsAreElongatedNotBlobs) {
  // A neurite arbor should span much more than its step length: check the
  // object bounding box is much larger than the inter-point step.
  datagen::NeuronConfig cfg;
  cfg.num_objects = 5;
  cfg.points_per_object = 300;
  ObjectSet set = MakeNeuronLike(cfg);
  for (const Object& o : set) {
    Aabb box;
    for (const Point& p : o.points) box.Extend(p);
    double span = std::max({box.ExtentX(), box.ExtentY(), box.ExtentZ()});
    EXPECT_GT(span, 10.0 * cfg.step_length);
  }
}

TEST(BirdGenTest, ShapeAndDeterminism) {
  datagen::BirdConfig cfg;
  cfg.num_objects = 100;
  cfg.points_per_object = 20;
  ObjectSet set = MakeBirdLike(cfg);
  DatasetStats s = set.Stats();
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.min_points, 20u);
  EXPECT_EQ(s.max_points, 20u);
  ObjectSet again = MakeBirdLike(cfg);
  EXPECT_TRUE(set[50].points[3] == again[50].points[3]);
}

TEST(BirdGenTest, TrajectoriesAreTwoDimensional) {
  datagen::BirdConfig cfg;
  cfg.num_objects = 20;
  ObjectSet set = MakeBirdLike(cfg);
  for (const Object& o : set) {
    for (const Point& p : o.points) EXPECT_DOUBLE_EQ(p.z, 0.0);
  }
}

TEST(BirdGenTest, FlockingCreatesInteractions) {
  // Flock members ride the same leader path within flock_radius, so at
  // r ~ radius the flocked sub-trajectories must interact.
  datagen::BirdConfig cfg;
  cfg.num_objects = 120;
  cfg.points_per_object = 30;
  cfg.flock_fraction = 0.5;
  cfg.flock_radius = 4.0;
  ObjectSet set = MakeBirdLike(cfg);
  std::vector<std::uint32_t> scores = SimpleGridScores(set, 8.0);
  EXPECT_GT(testing::MaxScore(scores), 5u);
}

TEST(BirdGenTest, TimesAreMonotonePerObject) {
  datagen::BirdConfig cfg;
  cfg.num_objects = 30;
  cfg.with_times = true;
  ObjectSet set = MakeBirdLike(cfg);
  for (const Object& o : set) {
    ASSERT_TRUE(o.HasTimes());
    for (std::size_t j = 1; j < o.times.size(); ++j) {
      EXPECT_GT(o.times[j], o.times[j - 1]);
    }
  }
}

TEST(PowerLawGenTest, ScoreDistributionIsHeavyTailed) {
  datagen::PowerLawConfig cfg;
  cfg.num_objects = 600;
  cfg.points_per_object = 10;
  ObjectSet set = MakePowerLaw(cfg);
  std::vector<std::uint32_t> scores = SimpleGridScores(set, 8.0);
  std::sort(scores.begin(), scores.end(), std::greater<>());
  // Heavy tail: the top object interacts with far more objects than the
  // median one, and many objects interact with almost nothing.
  EXPECT_GT(scores.front(), 20u);
  EXPECT_GE(scores.front(), 4 * std::max<std::uint32_t>(scores[300], 1));
  EXPECT_LE(scores[590], scores.front() / 4);
}

TEST(PresetTest, ParseAndNames) {
  Preset p;
  EXPECT_TRUE(datagen::ParsePreset("neuron", &p));
  EXPECT_EQ(p, Preset::kNeuron);
  EXPECT_TRUE(datagen::ParsePreset("syn", &p));
  EXPECT_FALSE(datagen::ParsePreset("nope", &p));
  for (Preset preset : datagen::AllPresets()) {
    Preset round;
    EXPECT_TRUE(datagen::ParsePreset(datagen::PresetName(preset), &round));
    EXPECT_EQ(round, preset);
  }
}

TEST(PresetTest, QuickSizesMatchTargets) {
  for (Preset preset : datagen::AllPresets()) {
    std::size_t n = 0, m = 0;
    datagen::PresetTargetSize(preset, Scale::kQuick, &n, &m);
    ObjectSet set = MakePreset(preset, Scale::kQuick);
    EXPECT_EQ(set.size(), n) << datagen::PresetName(preset);
    EXPECT_NEAR(set.Stats().m, static_cast<double>(m), 0.3 * m)
        << datagen::PresetName(preset);
  }
}

TEST(PresetTest, QuickDatasetsHaveInteractionsInPaperRange) {
  // The paper sweeps r in [4, 10]; the synthetic analogues must produce
  // non-trivial MIO scores in that range or every experiment is vacuous.
  for (Preset preset : datagen::AllPresets()) {
    if (preset == Preset::kSyn) continue;  // covered above, heavier
    ObjectSet set = MakePreset(preset, Scale::kQuick);
    std::vector<std::uint32_t> scores = SimpleGridScores(set, 6.0);
    EXPECT_GT(testing::MaxScore(scores), 2u) << datagen::PresetName(preset);
  }
}

}  // namespace
}  // namespace mio
