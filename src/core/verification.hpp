// VERIFICATION(O_cand, r) — paper Algorithm 6 / Corollary 1. Candidates
// are verified best-first (descending upper bound); verification stops as
// soon as the next upper bound cannot beat the best exact score found
// (the k-th best, for the top-k variant). The exact score of one object
// uses the large grid: per point, the still-unconfirmed candidates are
// b = b_adj(c) - b(o_i); posting lists are scanned only for set bits of b,
// and a point's neighbourhood scan stops the moment b empties.
//
// Corollary 1 is also applied inside each exact score. Before point j the
// candidate can end with at most |b(o_i) ∪ R_j| - 1 partners, where R_j is
// the union of b_adj over the points still to be processed (VerifyPoint
// only adds bits of its own b_adj). Once the top-k is full and that bound
// is at most the k-th best score, the candidate is abandoned and not
// offered: the tracker replaces only on a strictly greater score, so the
// answer, its ties and their order are those of full scoring. A query
// that records labels scores every candidate in full, so its Labeling-3
// output does not depend on the threshold.
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

/// One removal step of the decremental |b(o_i) ∪ R_j| count: bits of
/// word `word` that leave R after the point they were recorded for.
struct DropWord {
  std::uint32_t word;
  std::uint64_t bits;
};

/// Scratch of one serial exact-score loop. Reused across candidates, so
/// steady-state verification allocates nothing per candidate or point.
struct VerifyScratch {
  PlainBitset acc;  ///< accumulator b(o_i)
  PlainBitset b;    ///< VerifyPoint's candidate-set decode scratch
  /// Abandonment bookkeeping (ExactScore with a threshold). `reach` holds
  /// the words of R while the drop lists are built and is all zero
  /// between calls. Walking the processed points backwards, each point's
  /// drop list takes the bits of its b_adj that no later point's b_adj
  /// holds; list t spans drops[drop_bounds[t], drop_bounds[t + 1]).
  std::vector<std::uint64_t> reach;
  std::vector<DropWord> drops;
  std::vector<std::uint32_t> drop_bounds;

  /// Heap bytes held across every member.
  std::size_t MemoryUsageBytes() const {
    return acc.MemoryUsageBytes() + b.MemoryUsageBytes() +
           reach.capacity() * sizeof(std::uint64_t) +
           drops.capacity() * sizeof(DropWord) +
           drop_bounds.capacity() * sizeof(std::uint32_t);
  }
};

/// Reusable verification scratch. A batch hands one arena to every member
/// of a ceil(r) class so the scratch is allocated once per class instead
/// of once per query (nothing in it shrinks, so steady state is
/// allocation-free); without an arena a query keeps its own for all of
/// its candidates. HighWaterBytes feeds the batch.arena_high_water_bytes
/// histogram.
class VerifyArena {
 public:
  VerifyScratch serial;  ///< serial path
  /// Per-core scratch for the parallel verification path (acc and b).
  std::vector<VerifyScratch> slots;

  /// Grows `slots` to cover `threads` entries (existing capacity kept).
  void PrepareThreads(int threads) {
    if (slots.size() < static_cast<std::size_t>(threads)) {
      slots.resize(static_cast<std::size_t>(threads));
    }
  }

  /// Bytes currently held across every scratch — monotone over the
  /// arena's lifetime, so reading it after a batch gives the high-water
  /// mark.
  std::size_t HighWaterBytes() const {
    std::size_t bytes = serial.MemoryUsageBytes();
    for (const VerifyScratch& s : slots) bytes += s.MemoryUsageBytes();
    return bytes;
  }
};

/// Verification work tallies, summed into QueryStats by the callers.
struct VerifyWork {
  std::size_t distance_computations = 0;
  /// Posting runs whose object bit was tested (scanned or not) — the
  /// denominator of the visit/scan ratio.
  std::size_t postings_visited = 0;
  /// Candidates ExactScore abandoned once they could not enter the top-k.
  std::size_t abandoned = 0;
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
/// accumulates distance evaluations, posting visits and abandonments.
/// `scratch` (optional) is reused across ExactScore calls to keep
/// verification allocation-free; the lb seed overwrites its accumulator
/// wholesale, so a stale value cannot leak between candidates. `guard`
/// (optional) is polled every kGuardStridePoints points; once tripped the
/// scan stops and the returned score is PARTIAL (a valid lower bound of
/// the true score, but not exact) — callers must discard it.
///
/// `threshold` is the current k-th best exact score, or -1 while the
/// top-k is not full (the default: plain full scoring). With a threshold,
/// scoring stops as soon as the candidate provably cannot score above it;
/// the call then counts one abandonment in `work` and returns that bound,
/// which lies between the exact score and `threshold`. A score above
/// `threshold` is always returned exact and never abandoned.
std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         VerifyWork* work, bool use_verify_bit = true,
                         VerifyScratch* scratch = nullptr,
                         QueryGuard* guard = nullptr,
                         long long threshold = -1);

/// Best-first verification of the candidate queue; returns the top-k
/// objects by exact score, descending. `guard` (optional): on a trip the
/// in-flight candidate's partial score is discarded and the loop stops —
/// scores already offered to the tracker stay exact, so the returned
/// (possibly short) list is a sound best-so-far answer. `arena`
/// (optional) supplies the scratch; null keeps one query-local scratch
/// for every candidate. Candidates are scored against the current
/// threshold (abandoned ones count in stats->num_verified and
/// stats->verify_abandoned) unless `record_labels` is set.
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
