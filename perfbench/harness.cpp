// Engine harness of the repository benchmark (perfbench/run.py).
//
// The process that runs this harness holds the engine and nothing else: no
// generator, no oracle, no load generator, so its peak RSS is the engine's.
// It calls the library as a user does — the dataset is loaded through io,
// then MioEngine::Query or MioEngine::QueryBatch is called in a closed loop
// for a fixed number of seconds — and prints one JSON document on stdout
// with every latency, answer, QueryStats record and (traced) metrics
// counter delta. run.py turns that document into the benchmark's metrics
// and checks the answers against NL-kd in a separate process.
//
//   perfbench_harness direct --in=FILE --mode=fresh|batch --radii=R1,R2,...
//       --threads=T --seconds=S [--trace=0|1] [--spans=FILE] [--probe]
//       [--generated-preset=NAME]
//   perfbench_harness oracle --in=FILE --radii=R1,R2,...
//
// fresh: each request is one Query (labels off, reuse_grid off) over the
//        radius cycle; whole passes of the cycle repeat until the time is
//        up, so every run weighs each radius equally.
// batch: each request is one QueryBatch of the whole radius list (labels
//        on) on a fresh engine, as `mio run-workload --batch` runs it.
// oracle: NL-kd answers for the radii, one JSON line: the top-1 and every
//         object scoring at least as much, plus the dataset load time and
//         the build's provenance.
//
// With --trace=1 the harness also snapshots the metrics registry around
// every request, keeps spans (name, start, end, parent, request id) in
// memory and writes them to --spans at exit. With --probe it runs the
// radius cycle once more at kProbeThreads; with --generated-preset it runs
// the cycle on the generator's in-memory ObjectSet (at the generator's
// default seed, as `mio generate` writes it), interleaved with the
// file-loaded one, so the two verification times can be compared.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.hpp"
#include "common/cpu_features.hpp"
#include "baseline/nl_kdtree.hpp"
#include "core/mio_engine.hpp"
#include "datagen/presets.hpp"
#include "geo/kernels.hpp"
#include "io/dataset_io.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/stats_sink.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Every workload asks the plain MIO query (top-1).
constexpr std::size_t kK = 1;

/// Set-ups per run; setup_s and io.load_s are their medians.
constexpr int kSetupReps = 25;

/// Thread count of the traced probe pass of a serially timed workload.
constexpr int kProbeThreads = 4;

const Clock::time_point g_epoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long PeakRssKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// In-memory span log; written out once, when the run ends.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long request = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  int Open(const std::string& name, int parent = -1, long request = -1) {
    if (!on_) return -1;
    spans_.push_back({name, Now(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Now();
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":" << Quote(s.name) << ",\"start_s\":" << Num(s.start)
          << ",\"end_s\":" << Num(s.end) << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
    return static_cast<bool>(out);
  }
  std::size_t size() const { return spans_.size(); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

std::string TopkJson(const std::vector<mio::ScoredObject>& topk) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < topk.size(); ++i) {
    o << (i ? "," : "") << "[" << topk[i].id << "," << topk[i].score << "]";
  }
  o << "]";
  return o.str();
}

std::string MemberJson(double r, const mio::QueryResult& res) {
  const mio::QueryStats& s = res.stats;
  const mio::PhaseTimes& p = s.phases;
  std::ostringstream o;
  o << "{\"r\":" << Num(r)
    << ",\"ok\":" << (res.status.ok() ? "true" : "false")
    << ",\"complete\":" << (res.complete ? "true" : "false")
    << ",\"topk\":" << TopkJson(res.topk) << ",\"total_s\":"
    << Num(s.total_seconds) << ",\"phases\":[" << Num(p.label_input) << ","
    << Num(p.grid_mapping) << "," << Num(p.lower_bounding) << ","
    << Num(p.upper_bounding) << "," << Num(p.verification) << "]"
    << ",\"candidates\":" << s.num_candidates << ",\"verified\":"
    << s.num_verified << ",\"distance_computations\":"
    << s.distance_computations << ",\"cells_small\":" << s.cells_small
    << ",\"cells_large\":" << s.cells_large << ",\"index_bytes\":"
    << s.index_memory_bytes << ",\"points_pruned\":"
    << s.points_pruned_by_labels << ",\"label\":"
    << Quote(mio::LabelOutcomeName(s.label_outcome))
    << ",\"verify_imbalance\":"
    << Num(mio::ComputeThreadLoad(s.verify_thread_seconds).imbalance) << "}";
  return o.str();
}

std::string CounterDeltaJson(const mio::obs::MetricsSnapshot& before,
                             const mio::obs::MetricsSnapshot& after) {
  std::string out = "{";
  bool first = true;
  for (int c = 0; c < mio::obs::kNumCounters; ++c) {
    const std::uint64_t d = after.counters[c] - before.counters[c];
    if (d == 0) continue;
    if (!first) out += ",";
    first = false;
    out += Quote(mio::obs::kCounterNames[c]) + ":" + std::to_string(d);
  }
  return out + "}";
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  return 2;
}

int CmdOracle(const mio::ArgParser& args) {
  const double t0 = Now();
  mio::Result<mio::ObjectSet> set =
      mio::LoadDatasetBinary(args.GetString("in", ""));
  if (!set.ok()) return Fail(set.status().ToString());
  const double load_s = Now() - t0;
  const std::vector<double> radii = args.GetDoubleList("radii", {});
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string out =
      "{\"load_s\":" + Num(load_s) +
      ",\"git_describe\":" + Quote(mio::obs::GitDescribe()) +
      ",\"kernel_tier\":" +
      Quote(mio::KernelTierName(mio::ActiveKernelTier())) +
      ",\"pmu_tier\":" +
      Quote(mio::obs::PmuTierName(mio::obs::ActivePmuTier())) +
      ",\"answers\":[";
  for (std::size_t i = 0; i < radii.size(); ++i) {
    const std::vector<std::uint32_t> scores =
        mio::NlKdScores(set.value(), radii[i], threads);
    const std::vector<mio::ScoredObject> topk =
        mio::TopKFromScores(scores, kK);
    // Every object scoring at least the k-th best, so an answer that
    // names another of several equally scored objects is still checked
    // exactly.
    std::vector<mio::ScoredObject> tied;
    const std::uint32_t floor = topk.empty() ? 0 : topk.back().score;
    for (std::size_t id = 0; id < scores.size(); ++id) {
      if (scores[id] >= floor) {
        tied.push_back({static_cast<mio::ObjectId>(id), scores[id]});
      }
    }
    if (i) out += ",";
    out += "{\"r\":" + Num(radii[i]) + ",\"topk\":" + TopkJson(topk) +
           ",\"at_least_kth\":" + TopkJson(tied) + "}";
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

int CmdDirect(const mio::ArgParser& args) {
  for (const char* flag : {"in", "mode", "radii", "threads", "seconds"}) {
    if (!args.Has(flag)) return Fail(std::string("--") + flag + " is required");
  }
  const std::string path = args.GetString("in", "");
  const std::string mode = args.GetString("mode", "");
  const std::vector<double> radii = args.GetDoubleList("radii", {});
  const int threads = static_cast<int>(args.GetInt("threads", 0));
  const double seconds = args.GetDouble("seconds", 0.0);
  const bool trace = args.GetInt("trace", 0) != 0;
  if (radii.empty()) return Fail("--radii is empty");
  if (mode != "fresh" && mode != "batch") {
    return Fail("unknown --mode " + mode);
  }

  SpanLog spans(trace);
  std::ostringstream doc;
  doc << "{\"kernel_tier\":"
      << Quote(mio::KernelTierName(mio::ActiveKernelTier()))
      << ",\"pmu_tier\":"
      << Quote(mio::obs::PmuTierName(mio::obs::ActivePmuTier()))
      << ",\"git_describe\":" << Quote(mio::obs::GitDescribe())
      << ",\"threads\":" << threads;

  // Set-up: load through io and construct the engine, several times; the
  // last repetition's dataset and engine serve the timed region.
  std::optional<mio::ObjectSet> objects;
  std::unique_ptr<mio::MioEngine> engine;
  std::ostringstream load_s, setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    objects.reset();
    const int span = spans.Open("setup");
    const double t0 = Now();
    const int load_span = spans.Open("io.load", span);
    mio::Result<mio::ObjectSet> set = mio::LoadDatasetBinary(path);
    spans.Close(load_span);
    if (!set.ok()) return Fail(set.status().ToString());
    const double t1 = Now();
    objects.emplace(std::move(set).value());
    const int build_span = spans.Open("core.engine_construct", span);
    engine = std::make_unique<mio::MioEngine>(*objects);
    spans.Close(build_span);
    const double t2 = Now();
    spans.Close(span);
    load_s << (rep ? "," : "") << Num(t1 - t0);
    setup_s << (rep ? "," : "") << Num(t2 - t0);
  }
  doc << ",\"load_s\":[" << load_s.str() << "],\"setup_s\":["
      << setup_s.str() << "]";

  mio::QueryOptions qopt;
  qopt.threads = threads;
  qopt.k = kK;
  const bool batch = mode == "batch";
  if (batch) qopt.use_labels = qopt.record_labels = true;
  std::vector<mio::BatchQuery> sweep;
  for (double r : radii) sweep.push_back({r, qopt});

  // One request: a Query on the long-lived engine, or a QueryBatch on a
  // fresh one. Returns the request's JSON record.
  long request_id = 0;
  auto run_request = [&](std::size_t cycle_pos) {
    const long rid = request_id++;
    mio::obs::MetricsSnapshot before;
    if (trace) before = mio::obs::SnapshotMetrics();
    std::ostringstream o;
    double latency = 0.0;
    if (batch) {
      mio::MioEngine fresh(*objects);
      const int span = spans.Open("core.query_batch", -1, rid);
      const double t0 = Now();
      mio::BatchResult res = fresh.QueryBatch(sweep);
      latency = Now() - t0;
      spans.Close(span);
      const mio::BatchStats& b = res.stats;
      o << "{\"lat_s\":" << Num(latency) << ",\"batch\":{\"classes\":"
        << b.classes << ",\"grid_builds\":" << b.grid_builds
        << ",\"grid_builds_saved\":" << b.grid_builds_saved
        << ",\"cells_partitioned\":" << b.cells_partitioned
        << ",\"arena_high_water_bytes\":" << b.arena_high_water_bytes
        << "},\"members\":[";
      for (std::size_t i = 0; i < res.results.size(); ++i) {
        o << (i ? "," : "") << MemberJson(radii[i], res.results[i]);
      }
      o << "]";
    } else {
      const double r = radii[cycle_pos % radii.size()];
      const int span = spans.Open("core.query", -1, rid);
      const double t0 = Now();
      mio::QueryResult res = engine->Query(r, qopt);
      latency = Now() - t0;
      spans.Close(span);
      o << "{\"lat_s\":" << Num(latency) << ",\"members\":["
        << MemberJson(r, res) << "]";
    }
    if (trace) {
      o << ",\"counters\":"
        << CounterDeltaJson(before, mio::obs::SnapshotMetrics());
    }
    o << "}";
    return o.str();
  };

  // Warm-up: the first request is untimed but kept, so first-query
  // defects (a stalled upper-bounding phase, a cold allocator) stay
  // visible in the output.
  doc << ",\"warmup\":" << run_request(0);

  std::string requests;
  const double cpu0 = CpuSeconds();
  const double start = Now();
  std::size_t pos = 0;
  do {
    if (pos) requests += ",";
    requests += run_request(pos);
    ++pos;
  } while (Now() - start < seconds || (!batch && pos % radii.size() != 0));
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu0;
  doc << ",\"timed_wall_s\":" << Num(wall) << ",\"cpu_s\":" << Num(cpu)
      << ",\"requests\":[" << requests << "]";
  doc << ",\"peak_rss_kib\":" << PeakRssKib();

  // Thread probe: one more pass of the cycle at kProbeThreads, so a
  // workload timed serially still shows how the parallel phases behave
  // (including a stall on the first parallel query of the process).
  if (trace && args.Has("probe") && !batch) {
    mio::QueryOptions popt = qopt;
    popt.threads = kProbeThreads;
    std::ostringstream members;
    const double cpu_before = CpuSeconds();
    const double probe_start = Now();
    for (std::size_t i = 0; i < radii.size(); ++i) {
      const int span = spans.Open("probe.query");
      const double t0 = Now();
      mio::QueryResult res = engine->Query(radii[i], popt);
      const double latency = Now() - t0;
      spans.Close(span);
      members << (i ? "," : "") << "{\"lat_s\":" << Num(latency)
              << ",\"member\":" << MemberJson(radii[i], res) << "}";
    }
    doc << ",\"probe\":{\"threads\":" << kProbeThreads
        << ",\"wall_s\":" << Num(Now() - probe_start)
        << ",\"cpu_s\":" << Num(CpuSeconds() - cpu_before)
        << ",\"queries\":[" << members.str() << "]}";
  }

  // CLI-vs-harness gap: the same radius cycle on the generator's
  // in-memory set and on the file-loaded set, interleaved.
  const std::string gen_preset = args.GetString("generated-preset", "");
  if (trace && !gen_preset.empty() && !batch) {
    mio::datagen::Preset preset;
    if (!mio::datagen::ParsePreset(gen_preset, &preset)) {
      return Fail("unknown --generated-preset " + gen_preset);
    }
    const mio::ObjectSet generated =
        mio::datagen::MakePreset(preset, mio::datagen::Scale::kQuick);
    mio::MioEngine gen_engine(generated);
    std::ostringstream loaded_v, generated_v;
    bool same = true;
    for (std::size_t i = 0; i < radii.size(); ++i) {
      const int s1 = spans.Open("gap.loaded");
      mio::QueryResult a = engine->Query(radii[i], qopt);
      spans.Close(s1);
      const int s2 = spans.Open("gap.generated");
      mio::QueryResult b = gen_engine.Query(radii[i], qopt);
      spans.Close(s2);
      same = same && TopkJson(a.topk) == TopkJson(b.topk);
      loaded_v << (i ? "," : "") << Num(a.stats.phases.verification);
      generated_v << (i ? "," : "") << Num(b.stats.phases.verification);
    }
    doc << ",\"gap\":{\"loaded_verification_s\":[" << loaded_v.str()
        << "],\"generated_verification_s\":[" << generated_v.str()
        << "],\"same_answers\":" << (same ? "true" : "false") << "}";
  }

  const std::string spans_path = args.GetString("spans", "");
  if (trace && !spans_path.empty()) {
    if (!spans.Write(spans_path)) return Fail("cannot write " + spans_path);
    doc << ",\"spans\":" << spans.size();
  }
  std::printf("%s}\n", doc.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: perfbench_harness direct|oracle --flags");
  const std::string cmd = argv[1];
  mio::ArgParser args(argc - 1, argv + 1);
  if (cmd == "direct") return CmdDirect(args);
  if (cmd == "oracle") return CmdOracle(args);
  return Fail("unknown command " + cmd);
}
