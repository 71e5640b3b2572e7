// Per-query structured logging (qlog): one validated JSONL record per
// query ("mio-qlog-v1") — wall latency, per-phase seconds, the pruning
// funnel, the label-reuse outcome, the guardrail outcome, and resource
// footprints. It is the repo's only per-query record: `mio run-workload`,
// `mio serve`, `mio query`/`mio sweep --stats-json`, `mio profile` and
// the bench harnesses' --json-out all write it, built from a QueryResult
// by QlogRecordFromResult (obs/stats_sink.hpp). Optional sections carry
// the single-query detail (per-phase PMU counts, verify load balance, the
// metrics-registry snapshot, memory parts and tracker, compression, grid
// counters) where the caller has it.
//
// The same header also holds the tail-based trace sampler: tracing stays
// armed for every query, but the Chrome trace is only kept for queries
// exceeding a latency threshold or landing in the slowest-N, so the
// outliers that matter stay fully explainable while a 10k-query workload
// does not write 10k trace files.
//
// `mio qlog report` aggregates qlogs (p50/p95/p99 latency via the shared
// R-7 percentile helpers, per-phase aggregates, label hit rate per
// ceil(r) class, slowest-N pointers).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bitset/bitset_stats.hpp"
#include "common/memory_tracker.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"

namespace mio {
namespace obs {

/// One query's log record. String enums (`label_outcome`, `status`) are
/// carried as their canonical short names so the record round-trips
/// without pulling core headers into the obs layer; QlogRecordFromResult
/// fills them from LabelOutcomeName / StatusCodeName.
struct QlogRecord {
  // Identity.
  std::uint64_t query_index = 0;  ///< position in the workload, 0-based
  std::string workload;           ///< workload-spec name ("" = unnamed)
  std::string dataset;
  std::string algo;               ///< "bigrid" / "bigrid-label"
  double r = 0.0;
  int ceil_r = 0;                 ///< the label-reuse equivalence class
  std::uint64_t k = 1;
  int threads = 1;                ///< requested worker threads
  std::string scale;              ///< bench preset scale ("quick"/"full")

  // Timing. `wall_seconds` is the harness-side clock around the query;
  // `total_seconds` the engine-side clock (phases + glue).
  double wall_seconds = 0.0;
  double total_seconds = 0.0;
  double phase_label_input = 0.0;
  double phase_grid_mapping = 0.0;
  double phase_lower_bounding = 0.0;
  double phase_upper_bounding = 0.0;
  double phase_verification = 0.0;

  // Pruning funnel (objects -> upper-bound survivors -> verified).
  std::uint64_t objects = 0;
  std::uint64_t points = 0;       ///< n*m, the cycles-per-point denominator
  std::uint64_t candidates = 0;
  std::uint64_t verified = 0;
  std::uint64_t distance_computations = 0;
  /// Posting runs verification tested (optional on read: records written
  /// before the field existed parse with 0).
  std::uint64_t postings_visited = 0;
  /// Verified candidates abandoned once they could not enter the top-k
  /// (optional on read, like postings_visited).
  std::uint64_t verify_abandoned = 0;
  std::uint64_t winner_id = 0;
  std::uint64_t winner_score = 0;

  // Label reuse (LabelOutcomeName: off / hit_memory / hit_disk /
  // recorded / miss).
  std::string label_outcome = "off";
  std::uint64_t points_pruned_by_labels = 0;

  // Guardrail outcome (StatusCodeName).
  std::string status = "OK";
  bool complete = true;
  std::uint32_t degradation_level = 0;
  /// Set on the exit-flush fallback of an interrupted command: the query
  /// never finished, so only the identity fields are real.
  bool truncated = false;

  // Environment and resources.
  std::string pmu_tier;
  std::string kernel_tier;
  std::uint64_t index_memory_bytes = 0;
  std::uint64_t peak_memory_bytes = 0;
  std::uint64_t trace_dropped_spans = 0;

  // Batch execution (`mio run-workload --batch`). batch_size == 0 means
  // the query ran sequentially and the optional "batch" section is
  // omitted from the JSON line; a batched query carries its batch's id
  // and total member count so reports can split the two populations.
  std::uint64_t batch_id = 0;
  std::uint64_t batch_size = 0;

  // Server request lifecycle (`mio serve`). An empty server_request_id
  // means the query did not run through the server and the optional
  // "server" section is omitted from the JSON line. The role strings are
  // the coalescer outcomes: "solo" / "leader" (actually executed),
  // "follower" (result shared from an identical in-flight query),
  // "cached" (served from the result cache). Follower/cached records
  // carry zeroed engine stats — their wall_seconds is the client-visible
  // end-to-end time, not an execution.
  std::string server_request_id;      ///< "r000042"
  std::string server_correlation_id;  ///< client-supplied request `id`
  std::string server_client;          ///< connection id ("c3")
  std::string server_role;            ///< solo/leader/follower/cached
  double server_queue_wait_seconds = 0.0;  ///< enqueued -> dequeued
  double server_e2e_seconds = 0.0;         ///< accepted -> responded

  // Optional detail sections. Each is written only when it holds data,
  // checked by the validator when present, and ignored by readers that
  // predate it (the forward-compat contract "batch" and "server" use).
  // They are write-side only: ParseQlogRecord validates them but does
  // not read them back, since no aggregate consumes them — scripts read
  // them from the JSON.
  /// "hardware": per-phase PMU deltas, pipeline order; omitted when no
  /// phase was sampled.
  std::array<PmuCounts, 5> hardware{};
  /// "verify_load_balance": seconds each verification worker spent.
  std::vector<double> verify_thread_seconds;
  /// "memory.parts": the index footprint by structure.
  MemoryBreakdown memory_breakdown;
  /// "memory.tracker": process-wide current/peak bytes per tag.
  std::vector<MemoryTracker::Entry> memory_tracker;
  /// "compression": omitted when no bitsets were measured.
  BitsetCompressionStats compression;
  /// "grid": omitted when both cell counts are zero.
  std::uint64_t cells_small = 0;
  std::uint64_t cells_large = 0;
  std::uint64_t tau_low_max = 0;  ///< best lower bound found
  bool reused_grid = false;
  /// "metrics": the registry snapshot around this query; null = omitted.
  /// Shared, not embedded: a snapshot is kilobytes and records are copied.
  std::shared_ptr<const MetricsSnapshot> metrics;

  /// True when the query ran as a QueryBatch member.
  bool Batched() const { return batch_size > 0; }

  /// True when the record came from a `mio serve` request.
  bool HasServer() const { return !server_request_id.empty(); }

  /// True for server records whose engine stats are real (solo/leader);
  /// follower and cached records never touched the engine.
  bool ServerExecuted() const {
    return server_role == "solo" || server_role == "leader";
  }

  /// True when the engine stats are this record's own execution: every
  /// non-server record, and solo/leader server records.
  bool Executed() const { return !HasServer() || ServerExecuted(); }

  /// True when the label lookup reused an existing set (memory or disk).
  bool LabelHit() const {
    return label_outcome == "hit_memory" || label_outcome == "hit_disk";
  }
};

/// Serialises one record as a single "mio-qlog-v1" JSON line (no
/// trailing newline). The output always passes ValidateQlogLine.
std::string QlogRecordToJsonLine(const QlogRecord& rec);

/// Schema check of one JSONL line: well-formed JSON, `"schema":
/// "mio-qlog-v1"`, every required section and field present with the
/// right type, and enum strings from their canonical sets.
Status ValidateQlogLine(std::string_view line);

/// Parses (and validates) one line back into a record.
Status ParseQlogRecord(std::string_view line, QlogRecord* out);

/// Reads a whole qlog file, validating every line; the line number is
/// included in any error.
Result<std::vector<QlogRecord>> LoadQlogFile(const std::string& path);

/// Append-oriented qlog file writer: one validated JSONL line per
/// Append(), flushed per record so a killed workload keeps every
/// completed query. "-" writes to stdout.
class QlogWriter {
 public:
  QlogWriter() = default;
  ~QlogWriter();
  QlogWriter(const QlogWriter&) = delete;
  QlogWriter& operator=(const QlogWriter&) = delete;

  /// Opens `path` (truncating, or appending with `append` — the bench
  /// collector appends workload records after the harness records).
  Status Open(const std::string& path, bool append = false);

  Status Append(const QlogRecord& rec);

  /// Flushes and closes; returns the first deferred write error.
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  std::size_t records_written() const { return records_; }

 private:
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;  ///< false for "-" (stdout)
  std::size_t records_ = 0;
};

/// Tail-sampling policy: which queries keep their trace file.
struct TailSamplerConfig {
  /// Queries with wall latency >= this are tail, permanently (0 = off).
  double threshold_seconds = 0.0;
  /// The slowest N queries of the whole workload are tail; membership is
  /// provisional — a faster query is evicted when a slower one arrives
  /// (0 = off).
  std::size_t slowest_n = 0;

  bool enabled() const { return threshold_seconds > 0.0 || slowest_n > 0; }
};

/// Streaming decision-maker over per-query latencies. Offer() is called
/// once per query in workload order; the final tail set is exactly
///   {i : wall_i >= threshold}  ∪  slowest-N by (wall, index)
/// with ties broken toward the later index (deterministic — the check
/// scripts recompute the same set from the qlog).
class TailSampler {
 public:
  explicit TailSampler(TailSamplerConfig cfg) : cfg_(cfg) {}

  struct Decision {
    /// Export this query's trace now.
    bool export_trace = false;
    /// Previously-exported queries that just fell out of the slowest-N
    /// set: their trace files should be deleted.
    std::vector<std::uint64_t> evict;
  };

  Decision Offer(std::uint64_t index, double wall_seconds);

  bool enabled() const { return cfg_.enabled(); }

  /// Current tail set (sorted by index); final after the last Offer().
  std::vector<std::uint64_t> TailIndices() const;

 private:
  TailSamplerConfig cfg_;
  /// Current slowest-N members, ordered by (seconds, index) ascending —
  /// begin() is the next eviction candidate.
  std::set<std::pair<double, std::uint64_t>> slowest_;
  /// Threshold-exceeders: never evicted.
  std::unordered_set<std::uint64_t> permanent_;
};

/// Conventional trace-file name for a workload query, used by the
/// runner, the report, and the check scripts alike: "q000123.trace.json".
std::string TailTraceFileName(std::uint64_t query_index);

// --- Aggregation (`mio qlog report`) ---------------------------------------

/// Latency/seconds summary over one field of the records (R-7
/// percentiles, shared with `mio profile`).
struct QlogLatencySummary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double sum = 0.0;
};

/// Per-phase aggregate: total seconds across the workload and the share
/// of the summed phase time.
struct QlogPhaseAggregate {
  std::string name;
  double total_seconds = 0.0;
  double share = 0.0;     ///< of the summed phase totals
  /// Per-query median and p99 over executed records only: `mio serve`
  /// follower/cached records carry zeroed phases and are left out.
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Label-reuse effectiveness within one ceil(r) equivalence class.
struct QlogCeilClassStats {
  int ceil_r = 0;
  std::uint64_t queries = 0;
  std::uint64_t labelled = 0;  ///< queries whose label outcome is not "off"
  std::uint64_t hits = 0;      ///< hit_memory + hit_disk
  std::uint64_t recorded = 0;  ///< misses that recorded a fresh set
  std::uint64_t misses = 0;    ///< misses with nothing recorded
  /// Hits per labelled query; queries run without labels do not count.
  double HitRate() const {
    return labelled > 0 ? static_cast<double>(hits) /
                              static_cast<double>(labelled)
                        : 0.0;
  }
};

/// One slowest-N entry with enough identity to find the query again.
struct QlogSlowQuery {
  std::uint64_t query_index = 0;
  double wall_seconds = 0.0;
  double r = 0.0;
  std::string status;
  std::string label_outcome;
};

struct QlogReport {
  std::size_t num_queries = 0;
  std::size_t incomplete = 0;
  std::size_t degraded = 0;
  QlogLatencySummary latency;             ///< over wall_seconds
  std::vector<QlogPhaseAggregate> phases;
  std::vector<QlogCeilClassStats> ceil_classes;  ///< sorted by ceil_r
  std::vector<QlogSlowQuery> slowest;     ///< wall-descending, max N

  // Batched vs. sequential split (records with/without a "batch"
  // section). The per-population latency summaries are only meaningful
  // when the respective count is non-zero.
  std::size_t batched_queries = 0;
  QlogLatencySummary batched_latency;
  QlogLatencySummary sequential_latency;

  // Server split (records with a "server" section): how the accepted
  // requests resolved and where their time went. queue-wait and execute
  // summaries cover only the actually-executed (solo/leader) requests;
  // the e2e summary covers every server record, so coalesce and cache
  // wins show up as the gap between execute and e2e percentiles.
  std::size_t server_requests = 0;
  std::size_t server_executed = 0;   ///< role solo or leader
  std::size_t server_coalesced = 0;  ///< role follower
  std::size_t server_cached = 0;     ///< role cached
  QlogLatencySummary server_queue_wait;  ///< over executed requests
  QlogLatencySummary server_execute;     ///< wall_seconds over executed
  QlogLatencySummary server_e2e;         ///< over all server records
};

/// Aggregates records (any order) into a report; `slowest_n` bounds the
/// slowest-queries table.
QlogReport BuildQlogReport(const std::vector<QlogRecord>& records,
                           std::size_t slowest_n = 5);

/// The machine-readable report ("mio-qlog-report-v1"). `trace_dir`
/// (optional) resolves slowest-N entries to existing trace files.
std::string QlogReportToJson(const QlogReport& report,
                             const std::string& trace_dir = "");

/// The human-readable report. Same trace_dir convention.
std::string FormatQlogReport(const QlogReport& report,
                             const std::string& trace_dir = "");

// --- SLOs (`mio qlog report --slo`) -----------------------------------------

/// One latency objective from the workload spec's `slo` directive:
/// at least `objective` of the in-scope queries must finish within
/// `latency_ms` of wall time. `ceil_r == 0` scopes the objective to
/// every query; a positive value to that ⌈r⌉ class only.
struct SloObjective {
  int ceil_r = 0;
  double latency_ms = 0.0;
  double objective = 0.95;  ///< required fraction, in (0, 1)
};

/// Evaluation of one objective over a qlog. The error budget is the
/// number of violations the objective tolerates ((1-objective)*queries);
/// the burn rate is how fast the run consumed it — 1.0 means exactly
/// on budget, above 1.0 the objective is missed.
struct SloResult {
  SloObjective slo;
  std::uint64_t queries = 0;     ///< in-scope queries
  std::uint64_t violations = 0;  ///< wall > latency_ms
  double error_budget = 0.0;
  double burn_rate = 0.0;
  bool met = true;  ///< violations <= error_budget (vacuous when no queries)
};

std::vector<SloResult> EvaluateSlos(const std::vector<QlogRecord>& records,
                                    const std::vector<SloObjective>& slos);

/// Human-readable SLO table (one line per objective).
std::string FormatSloReport(const std::vector<SloResult>& results);

// --- Regression diff (`mio qlog diff`) --------------------------------------

struct QlogDiffOptions {
  /// Relative increase in wall p50/p95/p99 counted as regression (the
  /// baseline percentile must also be >= min_seconds).
  double latency_threshold = 0.10;
  /// Absolute increase in a phase's share of total phase time.
  double share_threshold = 0.10;
  /// Relative increase in a pruning-funnel ratio (candidates/objects,
  /// verified/candidates) — a looser funnel means pruning got worse.
  double funnel_threshold = 0.25;
  /// Absolute drop in label hit rate (overall and per shared ceil(r)
  /// class).
  double hit_rate_threshold = 0.10;
  /// Latency percentiles with a baseline below this are skipped — a
  /// relative gate on a near-zero baseline is pure noise.
  double min_seconds = 1e-4;
};

/// One compared metric. `delta` is relative ((cand-base)/base) when
/// `relative`, else absolute (cand-base); `regression` means the delta
/// crossed the metric's threshold in the bad direction.
struct QlogDiffEntry {
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double delta = 0.0;
  double threshold = 0.0;
  bool relative = true;
  bool regression = false;
};

struct QlogDiffResult {
  std::size_t baseline_queries = 0;
  std::size_t candidate_queries = 0;
  std::vector<QlogDiffEntry> entries;
  std::size_t regressions = 0;
  bool HasRegression() const { return regressions > 0; }
};

/// Compares two qlogs metric by metric: wall latency p50/p95/p99,
/// per-phase shares, pruning-funnel shape, and label hit rate (overall
/// and per ceil(r) class present in both runs).
QlogDiffResult DiffQlogs(const std::vector<QlogRecord>& baseline,
                         const std::vector<QlogRecord>& candidate,
                         const QlogDiffOptions& opts = QlogDiffOptions{});

/// Human-readable diff table; regressions are marked "REGRESSION".
std::string FormatQlogDiff(const QlogDiffResult& diff);

/// Machine-readable diff ("mio-qlog-diff-v1").
std::string QlogDiffToJson(const QlogDiffResult& diff);

}  // namespace obs
}  // namespace mio
