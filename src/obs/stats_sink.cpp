#include "obs/stats_sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/memory_tracker.hpp"
#include "geo/cell_key.hpp"
#include "geo/kernels.hpp"
#include "obs/perf_counters.hpp"

namespace mio {
namespace obs {

const char* GitDescribe() {
#ifdef MIO_GIT_DESCRIBE
  return MIO_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

QlogRecord QlogRecordFromResult(QlogRecord rec, const QueryResult& result,
                                const MetricsSnapshot* metrics) {
  const QueryStats& s = result.stats;
  rec.ceil_r = static_cast<int>(LargeGridWidth(rec.r));
  rec.total_seconds = s.total_seconds;
  rec.phase_label_input = s.phases.label_input;
  rec.phase_grid_mapping = s.phases.grid_mapping;
  rec.phase_lower_bounding = s.phases.lower_bounding;
  rec.phase_upper_bounding = s.phases.upper_bounding;
  rec.phase_verification = s.phases.verification;
  rec.points = s.total_points;
  rec.candidates = s.num_candidates;
  rec.verified = s.num_verified;
  rec.distance_computations = s.distance_computations;
  rec.postings_visited = s.postings_visited;
  rec.verify_abandoned = s.verify_abandoned;
  if (!result.topk.empty()) {
    rec.winner_id = result.best().id;
    rec.winner_score = result.best().score;
  }
  rec.label_outcome = LabelOutcomeName(s.label_outcome);
  rec.points_pruned_by_labels = s.points_pruned_by_labels;
  rec.status = StatusCodeName(result.status.code());
  rec.complete = result.complete;
  rec.degradation_level = s.degradation_level;
  rec.pmu_tier = PmuTierName(ActivePmuTier());
  rec.kernel_tier = KernelTierName(ActiveKernelTier());
  rec.index_memory_bytes = s.index_memory_bytes;
  // Sum of per-tag peaks from the process-wide tracker — an upper-bound
  // style footprint (tags peak at different times), stable across runs.
  rec.memory_tracker = MemoryTracker::Instance().Snapshot();
  rec.peak_memory_bytes = 0;
  for (const MemoryTracker::Entry& e : rec.memory_tracker) {
    rec.peak_memory_bytes += e.peak_bytes;
  }
  rec.memory_breakdown = s.memory;
  rec.hardware = {s.hardware.label_input, s.hardware.grid_mapping,
                  s.hardware.lower_bounding, s.hardware.upper_bounding,
                  s.hardware.verification};
  rec.verify_thread_seconds = s.verify_thread_seconds;
  rec.compression = s.compression;
  rec.cells_small = s.cells_small;
  rec.cells_large = s.cells_large;
  rec.tau_low_max = s.tau_low_max;
  rec.reused_grid = s.reused_grid;
  if (metrics != nullptr) {
    rec.metrics = std::make_shared<const MetricsSnapshot>(*metrics);
  }
  return rec;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 1.0) return values.back();
  // R-7 / numpy 'linear': rank h = p*(n-1) interpolated between the two
  // surrounding order statistics.
  double h = p * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(h));
  std::size_t hi = lo + 1 < values.size() ? lo + 1 : lo;
  double frac = h - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    std::fputc('\n', stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open: " + path);
  std::size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int close_err = std::fclose(f);
  if (written != contents.size() || close_err != 0) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace mio
