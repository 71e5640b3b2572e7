// VERIFICATION(O_cand, r) — paper Algorithm 6 / Corollary 1. Candidates
// are verified best-first (descending upper bound); verification stops as
// soon as the next upper bound cannot beat the best exact score found
// (the k-th best, for the top-k variant). The exact score of one object
// uses the large grid: per point, the still-unconfirmed candidates are
// b = b_adj(c) - b(o_i); posting lists are scanned only for set bits of b,
// and a point's neighbourhood scan stops the moment b empties.
#pragma once

#include <cstddef>
#include <vector>

#include "bitset/ewah.hpp"
#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/query_result.hpp"
#include "core/upper_bound.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// Reusable verification scratch. A single query allocates its scratch
/// bitsets lazily inside the verification loop; a batch hands one arena
/// to every member of a ceil(r) class so the bitsets are allocated once
/// per class instead of once per query (PlainBitset never shrinks, so
/// steady state is allocation-free). HighWaterBytes feeds the
/// batch.arena_high_water_bytes histogram.
class VerifyArena {
 public:
  PlainBitset acc;      ///< serial-path accumulator b(o_i)
  PlainBitset scratch;  ///< serial-path candidate-set decode scratch

  /// Per-core scratch for the parallel verification path.
  struct Slot {
    PlainBitset acc;
    PlainBitset scratch;
  };
  std::vector<Slot> slots;

  /// Grows `slots` to cover `threads` entries (existing capacity kept).
  void PrepareThreads(int threads) {
    if (slots.size() < static_cast<std::size_t>(threads)) {
      slots.resize(static_cast<std::size_t>(threads));
    }
  }

  /// Bytes currently held across every bitset — monotone over the arena's
  /// lifetime, so reading it after a batch gives the high-water mark.
  std::size_t HighWaterBytes() const {
    std::size_t bytes = acc.MemoryUsageBytes() + scratch.MemoryUsageBytes();
    for (const Slot& s : slots) {
      bytes += s.acc.MemoryUsageBytes() + s.scratch.MemoryUsageBytes();
    }
    return bytes;
  }
};

/// Verification work tallies, summed into QueryStats by the callers.
struct VerifyWork {
  std::size_t distance_computations = 0;
  /// Posting runs whose object bit was tested (scanned or not) — the
  /// denominator of the visit/scan ratio.
  std::size_t postings_visited = 0;
};

/// Processes one point of object i during exact scoring: computes the
/// unconfirmed-candidate set b = b_adj - acc, performs Labeling-3 when
/// recording, and scans the 27-cell neighbourhood's postings, folding
/// confirmed partners into `acc`. Each touched posting is evaluated with
/// one batch distance-kernel call over its SoA coordinates
/// (geo/kernels.hpp). `b_scratch` is caller-owned scratch the candidate
/// set is decoded into — reusing one bitset across points removes the
/// per-point allocation this function otherwise dominates on. Shared by
/// the serial and parallel verification paths (the parallel path passes
/// per-core accumulators and scratch). `work` (may be null) accumulates
/// the point's distance computations and posting visits.
void VerifyPoint(BiGrid& grid, ObjectId i, std::size_t point_idx,
                 PlainBitset* acc, PlainBitset* b_scratch,
                 LabelSet* record_labels, VerifyWork* work);

/// Exact score of a single object via the large grid (the body of
/// Algorithm 6's loop). `use_labels` activates the 1*1 point filter;
/// `record_labels` performs Labeling-3; `lb_bitset` (with-label mode)
/// seeds the accumulator with the lower-bound union; `work` (may be null)
/// accumulates distance evaluations and posting visits. `b_scratch`
/// (optional) is reused scratch for VerifyPoint's candidate set; pass one
/// bitset across many ExactScore calls to keep verification
/// allocation-free. `acc_scratch` (optional) is reused storage for the
/// accumulator itself — the lb seed is decoded over it wholesale, so a
/// stale value cannot leak between candidates. `guard` (optional) is
/// polled every kGuardStridePoints points; once tripped the scan stops and
/// the returned score is PARTIAL (a valid lower bound of the true score,
/// but not exact) — callers must discard it.
std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         VerifyWork* work, bool use_verify_bit = true,
                         PlainBitset* b_scratch = nullptr,
                         QueryGuard* guard = nullptr,
                         PlainBitset* acc_scratch = nullptr);

/// Best-first verification of the candidate queue; returns the top-k
/// objects by exact score, descending. `guard` (optional): on a trip the
/// in-flight candidate's partial score is discarded and the loop stops —
/// scores already offered to the tracker stay exact, so the returned
/// (possibly short) list is a sound best-so-far answer. `arena`
/// (optional) supplies the accumulator/scratch bitsets; null keeps the
/// query-local scratch of the single-query path.
std::vector<ScoredObject> Verification(BiGrid& grid,
                                       const UpperBoundResult& ub,
                                       std::size_t k,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       const std::vector<Ewah>* lb_bitsets,
                                       QueryStats* stats,
                                       bool use_verify_bit = true,
                                       QueryGuard* guard = nullptr,
                                       VerifyArena* arena = nullptr);

/// Maintains the k best exact scores seen so far and the resulting
/// termination threshold (shared by serial and parallel verification).
class TopKTracker {
 public:
  explicit TopKTracker(std::size_t k) : k_(k == 0 ? 1 : k) {}

  /// Current pruning threshold: the k-th best score once k objects have
  /// been verified, else -1 (nothing can be pruned yet).
  long long Threshold() const;

  void Offer(ObjectId id, std::uint32_t score);

  /// Results in descending score order (ties: ascending id).
  std::vector<ScoredObject> Sorted() const;

 private:
  void RecomputeWorst();

  std::size_t k_;
  std::vector<ScoredObject> entries_;  // unsorted, size <= k_
  std::size_t worst_idx_ = 0;  // index of the current worst entry; valid
                               // whenever entries_ is non-empty
};

}  // namespace mio
