// Table II — run time of each operation (seconds) of BIGrid and
// BIGrid-label per dataset, at the default threshold r = 4:
// Label-Input / Grid-Mapping / Lower-bounding / Upper-bounding /
// Verification.
//
//   ./bench_table2_breakdown [--full] [--datasets=...] [--r=4]
//                            [--json-out=FILE|-]
#include <filesystem>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  mio::ArgParser args(argc, argv);
  mio::datagen::Scale scale = mio::bench::SelectScale(args);
  double r = args.GetDouble("r", 4.0);
  mio::bench::JsonSink sink(args, "table2_breakdown");

  mio::bench::Header("Table II: per-phase run time [s] (r = " +
                     std::to_string(r) + ")");
  std::printf("%-10s %-14s %12s %13s %15s %15s %13s %11s\n", "dataset",
              "algo", "label-input", "grid-mapping", "lower-bounding",
              "upper-bounding", "verification", "total");

  for (mio::datagen::Preset preset : mio::bench::SelectDatasets(args)) {
    mio::ObjectSet set = mio::datagen::MakePreset(preset, scale);
    std::string name = mio::datagen::PresetName(preset);
    std::string label_dir =
        (std::filesystem::temp_directory_path() / ("mio_t2_" + name)).string();
    std::filesystem::remove_all(label_dir);

    // BIGrid (records labels as post-processing, per the paper's setup;
    // recording cost is excluded from the reported phases by measuring a
    // separate plain run first).
    {
      mio::MioEngine engine(set);
      sink.Begin();
      mio::Timer timer;
      mio::QueryResult res = engine.Query(r);
      sink.Record(name, "bigrid", r, 1, 1, timer.ElapsedSeconds(), res);
      const mio::PhaseTimes& p = res.stats.phases;
      std::printf("%-10s %-14s %12s %13s %15s %15s %13s %11s\n", name.c_str(),
                  "BIGrid", "-", mio::bench::Sec(p.grid_mapping).c_str(),
                  mio::bench::Sec(p.lower_bounding).c_str(),
                  mio::bench::Sec(p.upper_bounding).c_str(),
                  mio::bench::Sec(p.verification).c_str(),
                  mio::bench::Sec(res.stats.total_seconds).c_str());
    }
    // BIGrid-label: prime to disk, then time a fresh engine that loads.
    {
      mio::MioEngine recorder(set, label_dir);
      mio::bench::PrimeLabels(recorder, r, 1);
      mio::MioEngine engine(set, label_dir);
      mio::QueryOptions opt;
      opt.use_labels = true;
      sink.Begin();
      mio::Timer timer;
      mio::QueryResult res = engine.Query(r, opt);
      sink.Record(name, "bigrid-label", r, 1, 1, timer.ElapsedSeconds(), res);
      const mio::PhaseTimes& p = res.stats.phases;
      std::printf("%-10s %-14s %12s %13s %15s %15s %13s %11s\n", name.c_str(),
                  "BIGrid-label", mio::bench::Sec(p.label_input).c_str(),
                  mio::bench::Sec(p.grid_mapping).c_str(),
                  mio::bench::Sec(p.lower_bounding).c_str(),
                  mio::bench::Sec(p.upper_bounding).c_str(),
                  mio::bench::Sec(p.verification).c_str(),
                  mio::bench::Sec(res.stats.total_seconds).c_str());
      std::printf("%-10s %-14s   (points prunable by labels: %zu of %zu)\n",
                  name.c_str(), "", res.stats.points_pruned_by_labels,
                  set.Stats().nm);
    }
    std::filesystem::remove_all(label_dir);
  }
  return 0;
}
