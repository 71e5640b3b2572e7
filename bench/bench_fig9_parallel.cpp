// Fig. 9 + Table III — multi-core comparison: parallel NL, SG, BIGrid and
// BIGrid-label total query time while varying the core count, plus the
// speed-up ratios against the single-core runs (Table III).
//
// NOTE: this container may expose fewer physical cores than the sweep
// requests; OpenMP still runs t threads, so the *relative ordering* of
// algorithms and the partition behaviour remain observable even where
// wall-clock cannot scale.
//
//   ./bench_fig9_parallel [--full] [--datasets=...] [--r=4] [--t=1,2,4,8,12]
//                         [--algos=nl,sg,bigrid,bigrid-label]
//                         [--json-out=FILE|-]
#include <filesystem>
#include <map>

#include "bench_common.hpp"
#include "common/omp_utils.hpp"

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  mio::datagen::Scale scale = mio::bench::SelectScale(args);
  double r = args.GetDouble("r", 4.0);
  std::vector<std::int64_t> threads_list = args.GetIntList("t", {1, 2, 4, 8, 12});
  std::vector<std::string> algos =
      args.GetStringList("algos", {"nl", "sg", "bigrid", "bigrid-label"});
  mio::bench::JsonSink sink(args, "fig9_parallel");

  mio::bench::Header("Fig. 9: multi-core query time (physical cores: " +
                     std::to_string(mio::MaxThreads()) + ")");
  std::printf("%-10s %-14s %4s %12s %10s\n", "dataset", "algo", "t",
              "time[s]", "tau(o*)");

  // time[dataset][algo][t] for the Table III speed-up report.
  std::map<std::string, std::map<std::string, std::map<int, double>>> times;

  std::vector<mio::datagen::Preset> presets;
  if (args.Has("datasets")) {
    presets = mio::bench::SelectDatasets(args);
  } else {
    // The paper's Fig. 9 covers the four real datasets.
    presets = {mio::datagen::Preset::kNeuron, mio::datagen::Preset::kNeuron2,
               mio::datagen::Preset::kBird, mio::datagen::Preset::kBird2};
  }
  for (mio::datagen::Preset preset : presets) {
    mio::ObjectSet set = mio::datagen::MakePreset(preset, scale);
    std::string name = mio::datagen::PresetName(preset);
    std::string label_dir =
        (std::filesystem::temp_directory_path() / ("mio_f9_" + name)).string();
    std::filesystem::remove_all(label_dir);

    for (const std::string& algo : algos) {
      for (std::int64_t t64 : threads_list) {
        int t = static_cast<int>(t64);
        if (algo == "bigrid-label") {
          mio::MioEngine recorder(set, label_dir);
          mio::bench::PrimeLabels(recorder, r, t);
        }
        mio::MioEngine engine(set, label_dir);
        sink.Begin();
        mio::Timer timer;
        mio::QueryResult res =
            mio::bench::RunAlgorithm(algo, engine, set, r, t);
        double elapsed = timer.ElapsedSeconds();
        sink.Record(name, algo, r, 1, t, elapsed, res);
        times[name][algo][t] = elapsed;
        std::printf("%-10s %-14s %4d %12s %10u\n", name.c_str(), algo.c_str(),
                    t, mio::bench::Sec(elapsed).c_str(), res.best().score);
      }
    }
    std::filesystem::remove_all(label_dir);
  }

  mio::bench::Header("Table III: speed-up ratio vs single core");
  std::printf("%-10s %-14s", "dataset", "algo");
  for (std::int64_t t : threads_list) {
    if (t == 1) continue;
    std::printf(" %7s", ("t=" + std::to_string(t)).c_str());
  }
  std::printf("\n");
  for (const auto& [name, per_algo] : times) {
    for (const auto& [algo, per_t] : per_algo) {
      auto base = per_t.find(1);
      if (base == per_t.end() || base->second <= 0.0) continue;
      std::printf("%-10s %-14s", name.c_str(), algo.c_str());
      for (std::int64_t t : threads_list) {
        if (t == 1) continue;
        auto it = per_t.find(static_cast<int>(t));
        if (it == per_t.end() || it->second <= 0.0) {
          std::printf(" %7s", "-");
        } else {
          std::printf(" %7.3f", base->second / it->second);
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
