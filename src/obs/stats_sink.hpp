// The one QueryResult -> per-query record step. Every surface that
// reports a query — `mio run-workload`, `mio serve`, `mio query` and
// `mio sweep --stats-json`, `mio profile`, and the bench harnesses'
// --json-out — builds its record here and serialises it with
// QlogRecordToJsonLine, so they all emit the same "mio-qlog-v1" lines
// (obs/qlog.hpp) and any of them loads with `mio qlog report` and
// scripts/compare_bench.py.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/query_result.hpp"
#include "obs/metrics.hpp"
#include "obs/qlog.hpp"

namespace mio {
namespace obs {

/// `git describe` of the tree this binary was built from (configure-time;
/// "unknown" outside a git checkout).
const char* GitDescribe();

/// Fills a qlog record from one query's result. `identity` carries what
/// the result cannot know — query_index, workload, dataset, algo, r, k,
/// threads, scale, objects, wall_seconds, and any batch or server
/// section — and is returned with everything else filled from `result`:
/// ceil_r, engine timing and phases, funnel, winner, labels, outcome,
/// environment, memory (the process-wide tracker included), and the
/// hardware / load-balance / compression / grid sections. `metrics`
/// (nullable) attaches the registry snapshot, for callers that reset the
/// registry around the query.
QlogRecord QlogRecordFromResult(QlogRecord identity,
                                const QueryResult& result,
                                const MetricsSnapshot* metrics = nullptr);

/// Writes `contents` to `path` ("-" writes to stdout).
Status WriteTextFile(const std::string& path, const std::string& contents);

/// The p-quantile (p in [0,1]) of `values` with linear interpolation
/// between adjacent order statistics (the numpy/R-7 rule). Sorts a copy;
/// 0 on empty input. Shared by the qlog report and its tests.
double Percentile(std::vector<double> values, double p);

}  // namespace obs
}  // namespace mio
