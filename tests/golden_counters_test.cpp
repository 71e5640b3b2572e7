// Golden work counters: answers and deterministic pipeline counters on
// small seeded bird-like and syn-like datasets, pinned against values
// recorded from the hash-grid BIGrid layout that preceded the flat,
// sort-built one.
//
// The layout-independent counters (candidates, verified, lb_cell_ors,
// ub_cell_ors, adj_builds) and the answers must match exactly: a change in
// any of them is an algorithmic change, not a layout change. The scan
// counters (posting_scans, distance_computations) may only fall: a posting
// layout may prune more, never less.
//
// To print fresh rows after an intended algorithmic change:
//   MIO_GOLDEN_PRINT=1 ./golden_counters_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/mio_engine.hpp"
#include "datagen/powerlaw_gen.hpp"
#include "datagen/trajectory_gen.hpp"
#include "obs/metrics.hpp"

namespace mio {
namespace {

struct Counts {
  std::string answer;  // "id:score,..." of the top-k, best first
  std::uint64_t candidates = 0;
  std::uint64_t verified = 0;
  std::uint64_t lb_cell_ors = 0;
  std::uint64_t ub_cell_ors = 0;
  std::uint64_t adj_builds = 0;
  std::uint64_t posting_scans = 0;
  std::uint64_t distance_computations = 0;
};

/// One golden row. `mode`: 0 = labels off, 1 = first labelled query
/// (records), 2 = second labelled query (replays), 3 = one QueryBatch over
/// the dataset's radii with labels on (counters summed over members,
/// answers joined with '|').
struct Golden {
  const char* dataset;
  double r;
  int threads;
  int mode;
  Counts want;
};

const ObjectSet& Dataset(const std::string& name) {
  static const ObjectSet bird = [] {
    datagen::BirdConfig c;
    c.num_objects = 400;
    c.points_per_object = 20;
    c.seed = 5;
    c.domain_side = 3000.0;
    return datagen::MakeBirdLike(c);
  }();
  static const ObjectSet syn = [] {
    datagen::PowerLawConfig c;
    c.num_objects = 1500;
    c.points_per_object = 12;
    c.seed = 9;
    c.num_hubs = 16;
    c.domain_side = 500.0;
    return datagen::MakePowerLaw(c);
  }();
  return name == "bird" ? bird : syn;
}

const std::vector<double>& Radii(const std::string& name) {
  static const std::vector<double> bird = {3.0, 4.5, 8.0};
  static const std::vector<double> syn = {1.5, 2.5, 4.0};
  return name == "bird" ? bird : syn;
}

constexpr std::size_t kTopK = 3;

std::string AnswerOf(const QueryResult& res) {
  std::string out;
  for (const ScoredObject& s : res.topk) {
    if (!out.empty()) out += ",";
    out += std::to_string(s.id) + ":" + std::to_string(s.score);
  }
  return out;
}

std::uint64_t Delta(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after, obs::Counter c) {
  const int i = static_cast<int>(c);
  return after.counters[i] - before.counters[i];
}

void AddStats(const QueryStats& s, Counts* c) {
  c->candidates += s.num_candidates;
  c->verified += s.num_verified;
  c->distance_computations += s.distance_computations;
}

void AddCounters(const obs::MetricsSnapshot& before,
                 const obs::MetricsSnapshot& after, Counts* c) {
  c->lb_cell_ors += Delta(before, after, obs::Counter::kLbCellOrs);
  c->ub_cell_ors += Delta(before, after, obs::Counter::kUbCellOrs);
  c->adj_builds += Delta(before, after, obs::Counter::kAdjBuilds);
  c->posting_scans += Delta(before, after, obs::Counter::kPostingScans);
}

/// Runs the row's configuration on a fresh engine and returns its counts.
Counts RunRow(const std::string& dataset, double r, int threads, int mode) {
  const ObjectSet& set = Dataset(dataset);
  MioEngine engine(set);
  QueryOptions opt;
  opt.threads = threads;
  opt.k = kTopK;
  Counts c;
  if (mode == 3) {
    opt.use_labels = opt.record_labels = true;
    std::vector<BatchQuery> batch;
    for (double br : Radii(dataset)) batch.push_back({br, opt});
    const obs::MetricsSnapshot before = obs::SnapshotMetrics();
    BatchResult res = engine.QueryBatch(batch);
    const obs::MetricsSnapshot after = obs::SnapshotMetrics();
    for (const QueryResult& m : res.results) {
      if (!c.answer.empty()) c.answer += "|";
      c.answer += AnswerOf(m);
      AddStats(m.stats, &c);
    }
    AddCounters(before, after, &c);
    return c;
  }
  if (mode >= 1) {
    opt.use_labels = opt.record_labels = true;
    if (mode == 2) engine.Query(r, opt);  // records; the row replays
  }
  const obs::MetricsSnapshot before = obs::SnapshotMetrics();
  QueryResult res = engine.Query(r, opt);
  const obs::MetricsSnapshot after = obs::SnapshotMetrics();
  c.answer = AnswerOf(res);
  AddStats(res.stats, &c);
  AddCounters(before, after, &c);
  return c;
}

// clang-format off
const Golden kGolden[] = {
#include "golden_counters.inc"
};
// clang-format on

TEST(GoldenCountersTest, AnswersAndWorkCountersMatchRecordedValues) {
  const bool print = std::getenv("MIO_GOLDEN_PRINT") != nullptr;
  if (print) {
    for (const char* dataset : {"bird", "syn"}) {
      for (int threads : {1, 4}) {
        for (double r : Radii(dataset)) {
          for (int mode : {0, 1, 2}) {
            Counts c = RunRow(dataset, r, threads, mode);
            std::printf(
                "{\"%s\", %g, %d, %d, {\"%s\", %llu, %llu, %llu, %llu, "
                "%llu, %llu, %llu}},\n",
                dataset, r, threads, mode, c.answer.c_str(),
                (unsigned long long)c.candidates,
                (unsigned long long)c.verified,
                (unsigned long long)c.lb_cell_ors,
                (unsigned long long)c.ub_cell_ors,
                (unsigned long long)c.adj_builds,
                (unsigned long long)c.posting_scans,
                (unsigned long long)c.distance_computations);
          }
        }
      }
      Counts c = RunRow(dataset, 0.0, 1, 3);
      std::printf(
          "{\"%s\", 0, 1, 3, {\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, "
          "%llu}},\n",
          dataset, c.answer.c_str(), (unsigned long long)c.candidates,
          (unsigned long long)c.verified, (unsigned long long)c.lb_cell_ors,
          (unsigned long long)c.ub_cell_ors,
          (unsigned long long)c.adj_builds,
          (unsigned long long)c.posting_scans,
          (unsigned long long)c.distance_computations);
    }
    GTEST_SKIP() << "printed golden rows";
  }

  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.dataset) + " r=" + std::to_string(g.r) +
                 " threads=" + std::to_string(g.threads) +
                 " mode=" + std::to_string(g.mode));
    const Counts got = RunRow(g.dataset, g.r, g.threads, g.mode);
    EXPECT_EQ(got.answer, g.want.answer);
    EXPECT_EQ(got.candidates, g.want.candidates);
    EXPECT_EQ(got.verified, g.want.verified);
    EXPECT_EQ(got.lb_cell_ors, g.want.lb_cell_ors);
    EXPECT_EQ(got.ub_cell_ors, g.want.ub_cell_ors);
    EXPECT_EQ(got.adj_builds, g.want.adj_builds);
    EXPECT_LE(got.posting_scans, g.want.posting_scans);
    EXPECT_LE(got.distance_computations, g.want.distance_computations);
  }
}

}  // namespace
}  // namespace mio
