#include "obs/stats_sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/memory_tracker.hpp"
#include "geo/kernels.hpp"
#include "obs/json.hpp"
#include "obs/perf_counters.hpp"

namespace mio {
namespace obs {

namespace {

void WritePhases(JsonWriter& w, const PhaseTimes& p) {
  w.Key("phases").BeginObject();
  w.Key("label_input").Double(p.label_input);
  w.Key("grid_mapping").Double(p.grid_mapping);
  w.Key("lower_bounding").Double(p.lower_bounding);
  w.Key("upper_bounding").Double(p.upper_bounding);
  w.Key("verification").Double(p.verification);
  w.Key("total").Double(p.Total());
  w.EndObject();
}

void WriteCounters(JsonWriter& w, const QueryStats& s) {
  w.Key("counters").BeginObject();
  w.Key("tau_low_max").UInt(s.tau_low_max);
  w.Key("num_candidates").UInt(s.num_candidates);
  w.Key("num_verified").UInt(s.num_verified);
  w.Key("distance_computations").UInt(s.distance_computations);
  w.Key("postings_visited").UInt(s.postings_visited);
  w.Key("cells_small").UInt(s.cells_small);
  w.Key("cells_large").UInt(s.cells_large);
  w.Key("points_pruned_by_labels").UInt(s.points_pruned_by_labels);
  w.EndObject();
}

void WriteLoadBalance(JsonWriter& w, const QueryStats& s) {
  if (s.verify_thread_seconds.empty()) return;
  ThreadLoadReport report = ComputeThreadLoad(s.verify_thread_seconds);
  w.Key("verify_load_balance").BeginObject();
  w.Key("workers").UInt(s.verify_thread_seconds.size());
  w.Key("per_thread_seconds").BeginArray();
  for (double sec : s.verify_thread_seconds) w.Double(sec);
  w.EndArray();
  w.Key("min_seconds").Double(report.min_seconds);
  w.Key("max_seconds").Double(report.max_seconds);
  w.Key("mean_seconds").Double(report.mean_seconds);
  w.Key("imbalance").Double(report.imbalance);
  w.EndObject();
}

void WriteMemory(JsonWriter& w, const QueryStats& s) {
  w.Key("memory").BeginObject();
  w.Key("index_total_bytes").UInt(s.index_memory_bytes);
  w.Key("parts").BeginObject();
  for (const auto& [name, bytes] : s.memory.parts) {
    w.Key(name).UInt(bytes);
  }
  w.EndObject();
  // Process-wide current/peak per tag: outlives this query, so peaks from
  // earlier (larger) runs are preserved in every later snapshot.
  w.Key("tracker").BeginObject();
  for (const MemoryTracker::Entry& e : MemoryTracker::Instance().Snapshot()) {
    w.Key(e.tag).BeginObject();
    w.Key("current_bytes").UInt(e.current_bytes);
    w.Key("peak_bytes").UInt(e.peak_bytes);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

void WritePmuCounts(JsonWriter& w, const char* key, const PmuCounts& c) {
  if (c.Empty()) return;
  w.Key(key).BeginObject();
  for (int e = 0; e < kNumPmuEvents; ++e) {
    PmuEvent pe = static_cast<PmuEvent>(e);
    std::uint64_t v = c.Get(pe);
    if (v == 0 && !c.valid) continue;  // timing tier: task_clock_ns only
    w.Key(PmuEventName(pe)).UInt(v);
  }
  if (c.valid) {
    w.Key("ipc").Double(c.Ipc());
    w.Key("cache_miss_rate").Double(c.CacheMissRate());
    w.Key("branch_misses_per_ki").Double(c.BranchMissesPerKiloInstructions());
  }
  w.EndObject();
}

void WriteHardware(JsonWriter& w, const QueryStats& s) {
  PmuCounts total = s.hardware.Total();
  if (total.Empty()) return;  // never sampled (baselines, compiled out)
  w.Key("hardware").BeginObject();
  w.Key("pmu_tier").String(PmuTierName(ActivePmuTier()));
  w.Key("phases").BeginObject();
  WritePmuCounts(w, "label_input", s.hardware.label_input);
  WritePmuCounts(w, "grid_mapping", s.hardware.grid_mapping);
  WritePmuCounts(w, "lower_bounding", s.hardware.lower_bounding);
  WritePmuCounts(w, "upper_bounding", s.hardware.upper_bounding);
  WritePmuCounts(w, "verification", s.hardware.verification);
  WritePmuCounts(w, "total", total);
  w.EndObject();
  if (total.valid) {
    w.Key("derived").BeginObject();
    if (s.total_points > 0) {
      w.Key("cycles_per_point")
          .Double(static_cast<double>(total.Get(PmuEvent::kCycles)) /
                  static_cast<double>(s.total_points));
    }
    if (s.num_verified > 0) {
      w.Key("cycles_per_candidate")
          .Double(static_cast<double>(
                      s.hardware.verification.Get(PmuEvent::kCycles)) /
                  static_cast<double>(s.num_verified));
    }
    w.EndObject();
  }
  w.EndObject();
}

void WriteCompression(JsonWriter& w, const QueryStats& s) {
  if (s.compression.num_bitsets == 0) return;
  w.Key("compression").BeginObject();
  w.Key("num_bitsets").UInt(s.compression.num_bitsets);
  w.Key("compressed_bytes").UInt(s.compression.compressed_bytes);
  w.Key("uncompressed_bytes").UInt(s.compression.uncompressed_bytes);
  w.Key("savings_ratio").Double(s.compression.SavingsRatio());
  w.EndObject();
}

void WriteMetrics(JsonWriter& w, const MetricsSnapshot& m) {
  w.Key("metrics").BeginObject();
  w.Key("counters").BeginObject();
  for (int c = 0; c < kNumCounters; ++c) {
    std::uint64_t v = m.counters[static_cast<std::size_t>(c)];
    if (v == 0) continue;
    w.Key(CounterName(static_cast<Counter>(c))).UInt(v);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (int h = 0; h < kNumHistograms; ++h) {
    const HistogramSnapshot& hist = m.histograms[static_cast<std::size_t>(h)];
    if (hist.count == 0) continue;
    w.Key(HistogramName(static_cast<Histogram>(h))).BeginObject();
    w.Key("count").UInt(hist.count);
    w.Key("sum").UInt(hist.sum);
    w.Key("min").UInt(hist.min);
    w.Key("max").UInt(hist.max);
    w.Key("mean").Double(hist.Mean());
    w.Key("p50").Double(hist.Percentile(0.50));
    w.Key("p90").Double(hist.Percentile(0.90));
    w.Key("p99").Double(hist.Percentile(0.99));
    // Sparse bucket map: "log2_bucket" -> count, upper bound 2^b exclusive.
    w.Key("log2_buckets").BeginObject();
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      std::uint64_t n = hist.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      w.Key(std::to_string(b)).UInt(n);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace

const char* GitDescribe() {
#ifdef MIO_GIT_DESCRIBE
  return MIO_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

// Shared body of both StatsJson overloads; `result` (nullable) adds the
// guardrail outcome section.
std::string StatsJsonImpl(const QueryStats& stats, const RunInfo& info,
                          const MetricsSnapshot* metrics,
                          const QueryResult* result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("mio-stats-v1");
  w.Key("git").String(GitDescribe());
  w.Key("bench").String(info.bench);
  w.Key("dataset").String(info.dataset);
  w.Key("algo").String(info.algo);
  w.Key("params").BeginObject();
  w.Key("r").Double(info.r);
  w.Key("k").UInt(info.k);
  w.Key("threads").Int(info.threads);
  w.Key("scale").String(info.scale);
  w.EndObject();
  w.Key("kernel_tier").String(KernelTierName(ActiveKernelTier()));
  w.Key("total_seconds").Double(stats.total_seconds);
  if (info.wall_seconds > 0.0) w.Key("wall_seconds").Double(info.wall_seconds);
  w.Key("threads_used").Int(stats.threads);
  w.Key("reused_grid").Bool(stats.reused_grid);
  w.Key("label_outcome").String(LabelOutcomeName(stats.label_outcome));
  if (result != nullptr) {
    w.Key("outcome").BeginObject();
    w.Key("status").String(StatusCodeName(result->status.code()));
    if (!result->status.ok()) {
      w.Key("message").String(result->status.message());
    }
    w.Key("complete").Bool(result->complete);
    w.Key("degradation_level").UInt(stats.degradation_level);
    w.EndObject();
  }
  WritePhases(w, stats.phases);
  WriteHardware(w, stats);
  WriteCounters(w, stats);
  WriteLoadBalance(w, stats);
  WriteMemory(w, stats);
  WriteCompression(w, stats);
  if (metrics != nullptr && !metrics->Empty()) WriteMetrics(w, *metrics);
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace

std::string StatsJson(const QueryStats& stats, const RunInfo& info,
                      const MetricsSnapshot* metrics) {
  return StatsJsonImpl(stats, info, metrics, nullptr);
}

std::string StatsJson(const QueryResult& result, const RunInfo& info,
                      const MetricsSnapshot* metrics) {
  return StatsJsonImpl(result.stats, info, metrics, &result);
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

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
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
