// Mixed-mode fuzz: random datasets, random query configurations (threads,
// k, labels, grid reuse, strategies, radii), every answer differentially
// checked against the NL oracle. One TEST_P instance per seed so failures
// pinpoint a reproducible configuration.
//
// The adversarial suite aims at the sorted, flat grid layout: coordinates
// straddling zero (floor keys and neighbour joins across the sign), points
// exactly on cell boundaries at integer r, every point in one hub cell
// (the octant layout), duplicate points, r <= 1, and planar data — each
// checked against the oracle under sequential Query and QueryBatch.
//
// The verification differential runs the tie-heavy layouts (duplicate
// points, one hub cell) through Verification, which abandons candidates
// that cannot enter the top-k, and through a reference loop that scores
// every candidate in full: the top-k must agree id for id.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/lower_bound.hpp"
#include "core/mio_engine.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

class FuzzDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDifferentialTest, RandomConfigurationsMatchOracle) {
  const std::uint64_t seed = GetParam();
  Pcg32 rng(seed, 0x66757a7aULL);  // "fuzz"

  // Random dataset shape.
  std::size_t n = 10 + rng.NextBounded(70);
  std::size_t m_min = 1 + rng.NextBounded(8);
  std::size_t m_max = m_min + rng.NextBounded(12);
  double domain = 10.0 + rng.NextDouble() * 100.0;
  double sigma = 1.0 + rng.NextDouble() * 8.0;
  bool planar = rng.NextDouble() < 0.3;

  ObjectSet set;
  {
    ObjectSet raw =
        testing::MakeRandomObjects(n, m_min, m_max, domain, seed, sigma);
    if (planar) {
      for (const Object& o : raw) {
        std::vector<Point> copy(o.points.begin(), o.points.end());
        for (Point& p : copy) p.z = 0.0;
        set.Add(copy);
      }
    } else {
      set = std::move(raw);
    }
  }

  MioEngine engine(set);
  // Several queries against one engine: exercises label and grid caches
  // across radii and mode switches.
  for (int q = 0; q < 6; ++q) {
    double r = 0.5 + rng.NextDouble() * 12.0;
    QueryOptions opt;
    opt.threads = 1 + static_cast<int>(rng.NextBounded(4));
    opt.k = 1 + rng.NextBounded(5);
    opt.use_labels = rng.NextDouble() < 0.5;
    opt.record_labels = rng.NextDouble() < 0.7;
    opt.reuse_grid = rng.NextDouble() < 0.5;
    opt.lb_strategy = rng.NextDouble() < 0.5
                          ? LbStrategy::kGreedyDivideObjects
                          : LbStrategy::kHashPartitionPoints;
    opt.ub_strategy = rng.NextDouble() < 0.5
                          ? UbStrategy::kCostBasedGreedy
                          : UbStrategy::kGreedyDivideObjects;

    std::vector<std::uint32_t> exact = testing::OracleScores(set, r);
    std::vector<ScoredObject> want = TopKFromScores(exact, opt.k);

    QueryResult res = engine.Query(r, opt);
    ASSERT_EQ(res.topk.size(), want.size())
        << "seed=" << seed << " q=" << q << " r=" << r;
    for (std::size_t idx = 0; idx < want.size(); ++idx) {
      EXPECT_EQ(res.topk[idx].score, want[idx].score)
          << "seed=" << seed << " q=" << q << " r=" << r << " k=" << opt.k
          << " threads=" << opt.threads << " labels=" << opt.use_labels
          << " reuse=" << opt.reuse_grid << " pos=" << idx;
      EXPECT_EQ(exact[res.topk[idx].id], res.topk[idx].score)
          << "returned id's true score mismatch, seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Adversarial layouts -----------------------------------------------------

enum class Shape { kStraddle, kLattice, kHub, kDuplicates, kPlanar };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kStraddle:
      return "straddle";
    case Shape::kLattice:
      return "lattice";
    case Shape::kHub:
      return "hub";
    case Shape::kDuplicates:
      return "duplicates";
    case Shape::kPlanar:
      return "planar";
  }
  return "?";
}

ObjectSet MakeAdversarial(Shape shape, Pcg32& rng) {
  ObjectSet set;
  const std::size_t n = 20 + rng.NextBounded(40);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Point> pts;
    const std::size_t m = 1 + rng.NextBounded(8);
    // Object centre in [-6, 6)^3: every lattice axis crosses zero.
    const double cx = rng.NextDouble(-6.0, 6.0);
    const double cy = rng.NextDouble(-6.0, 6.0);
    const double cz = rng.NextDouble(-6.0, 6.0);
    for (std::size_t j = 0; j < m; ++j) {
      Point p;
      switch (shape) {
        case Shape::kStraddle:
          p = {cx + 2.0 * rng.NextGaussian(), cy + 2.0 * rng.NextGaussian(),
               cz + 2.0 * rng.NextGaussian()};
          break;
        case Shape::kLattice:
          // Half-integer lattice: points sit on cell faces at integer
          // widths and pairs lie at distance exactly r.
          p = {0.5 * static_cast<int>(rng.NextBounded(17)) - 4.0,
               0.5 * static_cast<int>(rng.NextBounded(17)) - 4.0,
               0.5 * static_cast<int>(rng.NextBounded(5)) - 1.0};
          break;
        case Shape::kHub:
          // Every point in [0, 1)^3, the single cell [0, w)^3 of every
          // large-grid width w >= 1: the hub takes the octant layout.
          p = {rng.NextDouble(0.0, 0.999), rng.NextDouble(0.0, 0.999),
               rng.NextDouble(0.0, 0.999)};
          break;
        case Shape::kDuplicates:
          if (j > 0 && rng.NextDouble() < 0.4) {
            p = pts[rng.NextBounded(static_cast<std::uint32_t>(j))];
          } else if (i > 0 && rng.NextDouble() < 0.4) {
            const Object& other =
                set[rng.NextBounded(static_cast<std::uint32_t>(i))];
            p = other.points[rng.NextBounded(
                static_cast<std::uint32_t>(other.points.size()))];
          } else {
            p = {cx + rng.NextGaussian(), cy + rng.NextGaussian(),
                 cz + rng.NextGaussian()};
          }
          break;
        case Shape::kPlanar:
          p = {cx + 2.0 * rng.NextGaussian(), cy + 2.0 * rng.NextGaussian(),
               -3.0};
          break;
      }
      pts.push_back(p);
    }
    set.Add(pts);
  }
  return set;
}

class AdversarialFuzzTest
    : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(AdversarialFuzzTest, QueryAndBatchMatchOracle) {
  const auto [shape, seed] = GetParam();
  Pcg32 rng(seed, 0x61647673ULL);  // "advs"
  const ObjectSet set = MakeAdversarial(shape, rng);
  if (shape == Shape::kPlanar) {
    ASSERT_TRUE(set.IsPlanar());
  }

  // Radii: sub-unit, integer (cell faces coincide with lattice points),
  // and general.
  std::vector<double> radii = {0.05 + rng.NextDouble() * 0.95, 1.0,
                               static_cast<double>(2 + rng.NextBounded(3)),
                               0.5 + rng.NextDouble() * 6.0};
  std::vector<BatchQuery> batch;
  for (double r : radii) {
    QueryOptions opt;
    opt.threads = 1 + static_cast<int>(rng.NextBounded(4));
    opt.k = 1 + rng.NextBounded(4);
    opt.use_labels = rng.NextDouble() < 0.5;
    opt.record_labels = rng.NextDouble() < 0.7;
    opt.reuse_grid = rng.NextDouble() < 0.5;
    batch.push_back({r, opt});
    // A same-ceiling sibling exercises label and grid sharing.
    BatchQuery sibling = batch.back();
    sibling.r = std::max(0.01, std::ceil(r) - 0.25 * rng.NextDouble());
    sibling.options.threads = 1 + static_cast<int>(rng.NextBounded(4));
    batch.push_back(sibling);
  }

  MioEngine sequential(set);
  MioEngine batched(set);
  const BatchResult batch_res = batched.QueryBatch(batch);
  ASSERT_EQ(batch_res.results.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const BatchQuery& bq = batch[q];
    const std::string where =
        std::string(ShapeName(shape)) + " seed=" + std::to_string(seed) +
        " q=" + std::to_string(q) + " r=" + std::to_string(bq.r) +
        " threads=" + std::to_string(bq.options.threads) +
        " labels=" + std::to_string(bq.options.use_labels) +
        " reuse=" + std::to_string(bq.options.reuse_grid);
    const std::vector<std::uint32_t> exact =
        testing::OracleScores(set, bq.r);
    const std::vector<ScoredObject> want =
        TopKFromScores(exact, bq.options.k);

    const QueryResult seq = sequential.Query(bq.r, bq.options);
    const QueryResult& bat = batch_res.results[q];
    ASSERT_TRUE(seq.complete) << where;
    ASSERT_TRUE(bat.complete) << where;
    ASSERT_EQ(seq.topk.size(), want.size()) << where;
    ASSERT_EQ(bat.topk.size(), want.size()) << where;
    for (std::size_t idx = 0; idx < want.size(); ++idx) {
      EXPECT_EQ(seq.topk[idx].score, want[idx].score) << where;
      EXPECT_EQ(exact[seq.topk[idx].id], seq.topk[idx].score) << where;
      // Batch members are bit-identical to sequential queries.
      EXPECT_EQ(bat.topk[idx].id, seq.topk[idx].id) << where;
      EXPECT_EQ(bat.topk[idx].score, seq.topk[idx].score) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, AdversarialFuzzTest,
    ::testing::Combine(::testing::Values(Shape::kStraddle, Shape::kLattice,
                                         Shape::kHub, Shape::kDuplicates,
                                         Shape::kPlanar),
                       ::testing::Range<std::uint64_t>(1, 7)),
    [](const ::testing::TestParamInfo<AdversarialFuzzTest::ParamType>& info) {
      return std::string(ShapeName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

/// Parent-style best-first verification: every candidate the queue bound
/// lets through is scored in full (ExactScore without a threshold).
std::vector<ScoredObject> ReferenceVerification(
    BiGrid& grid, const UpperBoundResult& ub, std::size_t k,
    const LabelSet* use_labels, LabelSet* record_labels,
    const std::vector<Ewah>* lb_bitsets, std::size_t* verified) {
  TopKTracker tracker(k);
  for (ObjectId i : ub.candidates) {
    if (static_cast<long long>(ub.tau_upp[i]) <= tracker.Threshold()) break;
    const Ewah* lb = lb_bitsets != nullptr ? &(*lb_bitsets)[i] : nullptr;
    tracker.Offer(i, ExactScore(grid, i, use_labels, record_labels, lb,
                                nullptr));
    ++*verified;
  }
  return tracker.Sorted();
}

class VerificationDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(VerificationDifferentialTest, AbandoningMatchesFullScoring) {
  const auto [shape, seed] = GetParam();
  Pcg32 rng(seed, 0x76657266ULL);  // "verf"
  const ObjectSet set = MakeAdversarial(shape, rng);
  const std::vector<double> radii = {
      0.05 + rng.NextDouble() * 0.95, 1.0,
      static_cast<double>(2 + rng.NextBounded(3)),
      0.5 + rng.NextDouble() * 6.0};
  std::size_t abandoned = 0;
  for (double r : radii) {
    // Recording query (k = 1): scored in full, so the labels it leaves
    // match the reference loop's byte for byte.
    LabelSet labels = LabelSet::MakeAllOnes(set);
    labels.recorded_r = r;
    {
      BiGrid grid(set, r);
      grid.Build();
      const LowerBoundResult lb = LowerBounding(grid, false);
      const UpperBoundResult ub =
          UpperBounding(grid, lb.tau_low_max, nullptr, &labels, nullptr);
      LabelSet ref_labels = labels;
      std::size_t ref_verified = 0;
      const std::vector<ScoredObject> want = ReferenceVerification(
          grid, ub, 1, nullptr, &ref_labels, nullptr, &ref_verified);
      QueryStats stats;
      const std::vector<ScoredObject> got =
          Verification(grid, ub, 1, nullptr, &labels, nullptr, &stats);
      ASSERT_EQ(got.size(), want.size()) << "record r=" << r;
      for (std::size_t idx = 0; idx < want.size(); ++idx) {
        EXPECT_EQ(got[idx].id, want[idx].id) << "record r=" << r;
      }
      EXPECT_EQ(stats.verify_abandoned, 0u) << "record r=" << r;
      EXPECT_TRUE(labels.labels == ref_labels.labels) << "record r=" << r;
    }

    for (const bool replay : {false, true}) {
      BiGrid grid(set, r);
      grid.Build(1, replay ? &labels : nullptr);
      const LabelSet* use_labels = replay ? &labels : nullptr;
      const LowerBoundResult lb = LowerBounding(grid, replay);
      const std::vector<Ewah>* lb_bits = replay ? &lb.lb_bitsets : nullptr;
      for (std::size_t k : {1, 2, 3, 5, 10}) {
        const std::string where = std::string(ShapeName(shape)) +
                                  " seed=" + std::to_string(seed) +
                                  " r=" + std::to_string(r) +
                                  " replay=" + std::to_string(replay) +
                                  " k=" + std::to_string(k);
        const std::uint32_t threshold =
            k == 1 ? lb.tau_low_max : lb.KthLargest(k);
        const UpperBoundResult ub =
            UpperBounding(grid, threshold, use_labels, nullptr, nullptr);
        std::size_t ref_verified = 0;
        const std::vector<ScoredObject> want = ReferenceVerification(
            grid, ub, k, use_labels, nullptr, lb_bits, &ref_verified);
        QueryStats stats;
        const std::vector<ScoredObject> got = Verification(
            grid, ub, k, use_labels, nullptr, lb_bits, &stats);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t idx = 0; idx < want.size(); ++idx) {
          EXPECT_EQ(got[idx].id, want[idx].id) << where << " pos=" << idx;
          EXPECT_EQ(got[idx].score, want[idx].score)
              << where << " pos=" << idx;
        }
        EXPECT_EQ(stats.num_verified, ref_verified) << where;
        abandoned += stats.verify_abandoned;
      }
    }
  }
  // The hub is one cell: R_j covers it until the last point, so no bound
  // falls early there. Duplicates spread over many cells and must abandon.
  if (shape == Shape::kDuplicates) {
    EXPECT_GT(abandoned, 0u) << "no candidate was ever abandoned";
  }
}

INSTANTIATE_TEST_SUITE_P(
    TieHeavy, VerificationDifferentialTest,
    ::testing::Combine(::testing::Values(Shape::kHub, Shape::kDuplicates),
                       ::testing::Range<std::uint64_t>(1, 9)),
    [](const ::testing::TestParamInfo<
        VerificationDifferentialTest::ParamType>& info) {
      return std::string(ShapeName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mio
