#include "core/verification.hpp"

#include <algorithm>

#include "common/guardrails.hpp"
#include "geo/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mio {

// ---------------------------------------------------------------------------
// TopKTracker
// ---------------------------------------------------------------------------

void TopKTracker::RecomputeWorst() {
  worst_idx_ = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].score < entries_[worst_idx_].score) worst_idx_ = i;
  }
}

long long TopKTracker::Threshold() const {
  if (entries_.size() < k_) return -1;
  return static_cast<long long>(entries_[worst_idx_].score);
}

void TopKTracker::Offer(ObjectId id, std::uint32_t score) {
  if (entries_.size() < k_) {
    // Keep the worst index current during the fill so Threshold() is O(1)
    // the moment the tracker reaches capacity.
    if (entries_.empty() || score < entries_[worst_idx_].score) {
      worst_idx_ = entries_.size();
    }
    entries_.push_back(ScoredObject{id, score});
    return;
  }
  // Replace the worst entry if strictly beaten (ties keep the incumbent:
  // the paper breaks ties arbitrarily). Only a replacement invalidates the
  // cached worst index, so large-k sweeps stop paying k comparisons per
  // candidate that fails the threshold.
  if (score > entries_[worst_idx_].score) {
    entries_[worst_idx_] = ScoredObject{id, score};
    RecomputeWorst();
  }
}

std::vector<ScoredObject> TopKTracker::Sorted() const {
  std::vector<ScoredObject> out = entries_;
  std::sort(out.begin(), out.end(), [](const ScoredObject& a,
                                       const ScoredObject& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Exact score
// ---------------------------------------------------------------------------

void VerifyPoint(BiGrid& grid, ObjectId i, std::size_t point_idx,
                 PlainBitset* acc, PlainBitset* b_scratch,
                 LabelSet* record_labels, VerifyWork* work) {
  const Point& p = grid.objects()[i].points[point_idx];
  const double r2 = grid.r() * grid.r();
  const std::uint32_t cell = grid.LargeCellOf(i, point_idx);
  // With labels, some cells may have skipped upper-bounding entirely, so
  // b_adj may be missing here — compute it first (paper §III-D).
  const CellAdj& adj = grid.EnsureAdj(cell);

  // b <- b_adj(c) - b(o_i): candidates not yet confirmed. Decoded into the
  // caller's scratch bitset, so steady-state verification allocates
  // nothing per point.
  PlainBitset& b = *b_scratch;
  adj.bits.DecodeInto(&b);
  b.AndNotWith(*acc);
  std::size_t remaining = b.Count();
  obs::Add(obs::Counter::kVerifyPoints);
  obs::Observe(obs::Histogram::kVerifyCandsPerPoint, remaining);
  if (remaining == 0) {
    obs::Add(obs::Counter::kVerifyPointsSettled);
    if (record_labels != nullptr) {
      // Labeling-3: this point's whole neighbourhood is already
      // confirmed (Observation 3).
      record_labels->labels[i][point_idx] &=
          static_cast<std::uint8_t>(~label::kVerify);
    }
    return;
  }

  const LargeGridData& g = grid.large();
  std::size_t comps = 0;
  std::size_t visited = 0;
  std::size_t postings = 0;
  std::size_t octants_pruned = 0;
  // Scan the cell itself, then its neighbours, stopping as soon as no
  // candidate remains near p. Postings are only scanned for set bits of
  // b (Algorithm 6 line 13). Most visited runs miss, so each run range is
  // first compacted, in chunks of up to 64 and without branching, to the
  // runs whose object bit is set; only those are then scanned, in order,
  // each as one batch-kernel call over its contiguous SoA coordinates. A
  // range holds at most one run per object (see LargeGridData), so
  // confirming an object cannot invalidate a later run of the same chunk.
  // Every run's object is in b_adj(cell), so its bit lies inside b's words.
  const std::uint64_t* b_words = b.words().data();
  auto scan_runs = [&](std::size_t run_begin,
                       std::size_t run_end) -> bool {  // false = stop
    visited += run_end - run_begin;
    std::uint32_t hits[64];
    for (std::size_t chunk = run_begin; chunk < run_end; chunk += 64) {
      const std::size_t chunk_end = std::min(chunk + 64, run_end);
      std::size_t num_hits = 0;
      for (std::size_t q = chunk; q < chunk_end; ++q) {
        const ObjectId obj = g.run_obj[q];
        hits[num_hits] = static_cast<std::uint32_t>(q);
        num_hits += (b_words[obj / 64] >> (obj % 64)) & 1u;
      }
      for (std::size_t h = 0; h < num_hits; ++h) {
        const std::uint32_t q = hits[h];
        const ObjectId obj = g.run_obj[q];
        ++postings;
        const PostingView posting = g.PostingAt(q);
        std::ptrdiff_t hit = AnyWithin(p, posting.xs, posting.ys, posting.zs,
                                       posting.size, r2);
        if (hit >= 0) {
          comps += static_cast<std::size_t>(hit) + 1;
          acc->Set(obj);
          b.Clear(obj);
          if (--remaining == 0) return false;
        } else {
          comps += posting.size;
        }
      }
    }
    return true;
  };
  auto scan_cell = [&](std::uint32_t c) -> bool {  // false = stop
    const std::uint32_t block = g.cell_octants[c];
    if (block == kNoCell) {
      return scan_runs(g.cell_runs[c], g.cell_runs[c + 1]);
    }
    // Octant layout: visit only octants whose point box can reach p.
    // Pruned octants provably hold no point within r (the boxes are tight
    // over the points), so the confirmed set — and the exact score — is
    // the same as a scan of every run.
    const std::uint32_t* dir =
        &g.oct_runs[static_cast<std::size_t>(block) * 9];
    const double* boxes = &g.oct_box[static_cast<std::size_t>(block) * 48];
    for (int o = 0; o < 8; ++o) {
      if (dir[o] == dir[o + 1]) continue;
      if (MinDist2ToOctantBox(p, boxes, o) > r2) {
        ++octants_pruned;
        continue;
      }
      if (!scan_runs(dir[o], dir[o + 1])) return false;
    }
    return true;
  };

  if (scan_cell(cell)) {
    for (std::uint32_t nb : g.Neighbors(cell)) {
      if (!scan_cell(nb)) break;
    }
  }
  obs::Add(obs::Counter::kPostingScans, postings);
  if (octants_pruned > 0) {
    obs::Add(obs::Counter::kVerifyOctantsPruned, octants_pruned);
  }
  if (work != nullptr) {
    work->distance_computations += comps;
    work->postings_visited += visited;
  }
}

std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         VerifyWork* work, bool use_verify_bit,
                         VerifyScratch* scratch, QueryGuard* guard,
                         long long threshold) {
  const Object& o = grid.objects()[i];
  VerifyScratch local_scratch;
  VerifyScratch& s = scratch != nullptr ? *scratch : local_scratch;
  const std::size_t n = grid.objects().size();

  // b(o_i): confirmed interaction partners (plus bit i). With labels it is
  // seeded from the lower-bound union — those objects are certain partners
  // (Lemma 1), so no posting scan needs to rediscover them. The seed fully
  // overwrites the accumulator (DecodeInto resets first), so reuse across
  // candidates is safe. Sized to n once, Set never regrows it.
  PlainBitset& acc = s.acc;
  acc.Resize(n);
  if (lb_bitset != nullptr) {
    lb_bitset->DecodeInto(&acc);
  } else {
    acc.Reset();
  }
  acc.Set(i);

  // VERIFICATION-WITH-LABEL iterates only points labelled 1*1. The kVerify
  // bit is honoured only at the recorded radius (see labels.hpp); kMap
  // must always be honoured — pruned points were never mapped into the
  // grid.
  auto processed = [&](std::size_t j) {
    if (use_labels == nullptr) return true;
    const std::uint8_t l = use_labels->Get(i, j);
    if ((l & label::kMap) == 0) return false;
    return !use_verify_bit || (l & label::kVerify) != 0;
  };

  // Abandonment (Corollary 1 inside the candidate): `live` tracks
  // |acc ∪ R_j| exactly, R_j being the union of b_adj over the processed
  // points from j on. Every bit VerifyPoint adds lies in R_j, so the score
  // can never exceed live - 1. The drop lists are built walking the points
  // backwards; that ensures b_adj for every point full scoring would
  // visit, and no other.
  const bool can_abandon = threshold >= 0;
  std::size_t live = 0;
  std::size_t list = 0;  // drop lists not yet consumed
  if (can_abandon) {
    const std::size_t words = (n + 63) / 64;
    if (s.reach.size() < words) s.reach.resize(words, 0);
    s.drops.clear();
    s.drop_bounds.assign(1, 0);
    std::uint32_t last_cell = kNoCell;
    for (std::size_t j = o.points.size(); j-- > 0;) {
      if (!processed(j)) continue;
      const std::uint32_t cell = grid.LargeCellOf(i, j);
      const CellAdj& adj = grid.EnsureAdj(cell);
      if (cell != last_cell) {  // a repeated cell adds nothing new to R
        adj.bits.ForEachNonZeroWord([&](std::size_t w, std::uint64_t v) {
          const std::uint64_t fresh = v & ~s.reach[w];
          if (fresh == 0) return;
          s.reach[w] |= fresh;
          s.drops.push_back({static_cast<std::uint32_t>(w), fresh});
        });
        last_cell = cell;
      }
      s.drop_bounds.push_back(static_cast<std::uint32_t>(s.drops.size()));
    }
    // |acc ∪ R_0|, leaving `reach` all zero again.
    const std::uint64_t* acc_words = acc.words().data();
    live = acc.Count();
    for (const DropWord& d : s.drops) {
      live += static_cast<std::size_t>(
          __builtin_popcountll(d.bits & ~acc_words[d.word]));
      s.reach[d.word] = 0;
    }
    list = s.drop_bounds.size() - 1;
  }

  for (std::size_t j = 0; j < o.points.size(); ++j) {
    if (guard != nullptr && (j % kGuardStridePoints) == 0 && guard->Poll()) {
      break;  // partial score: the caller must discard it
    }
    if (!processed(j)) continue;
    if (can_abandon && static_cast<long long>(live) - 1 <= threshold) {
      if (work != nullptr) ++work->abandoned;
      return static_cast<std::uint32_t>(live - 1);
    }
    VerifyPoint(grid, i, j, &acc, &s.b, record_labels, work);
    if (can_abandon) {
      // R_j -> R_{j+1}: drop this point's last-seen bits unless confirmed.
      --list;
      const std::uint64_t* acc_words = acc.words().data();
      for (std::uint32_t d = s.drop_bounds[list]; d < s.drop_bounds[list + 1];
           ++d) {
        live -= static_cast<std::size_t>(__builtin_popcountll(
            s.drops[d].bits & ~acc_words[s.drops[d].word]));
      }
    }
  }

  std::size_t count = acc.Count();
  return count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
}

// ---------------------------------------------------------------------------
// Best-first verification
// ---------------------------------------------------------------------------

std::vector<ScoredObject> Verification(BiGrid& grid,
                                       const UpperBoundResult& ub,
                                       std::size_t k,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       const std::vector<Ewah>* lb_bitsets,
                                       QueryStats* stats,
                                       bool use_verify_bit,
                                       QueryGuard* guard,
                                       VerifyArena* arena) {
  TopKTracker tracker(k);
  VerifyWork work;
  VerifyScratch local_scratch;  // reused across every candidate
  VerifyScratch* scratch = arena != nullptr ? &arena->serial : &local_scratch;
  for (ObjectId i : ub.candidates) {
    // Early termination (Corollary 1): the queue is sorted by descending
    // upper bound, so once the front cannot beat the k-th best exact
    // score, neither can anything behind it.
    if (static_cast<long long>(ub.tau_upp[i]) <= tracker.Threshold()) break;
    if (guard != nullptr && guard->Poll()) break;
    MIO_TRACE_SPAN_CAT("verify.candidate", "verify");
    const Ewah* lb =
        lb_bitsets != nullptr ? &(*lb_bitsets)[i] : nullptr;
    // A recording query scores in full: its Labeling-3 output must not
    // depend on the threshold.
    const long long threshold =
        record_labels != nullptr ? -1 : tracker.Threshold();
    const std::size_t abandoned = work.abandoned;
    std::uint32_t score =
        ExactScore(grid, i, use_labels, record_labels, lb, &work,
                   use_verify_bit, scratch, guard, threshold);
    if (guard != nullptr && guard->tripped()) break;  // partial: discard
    if (stats != nullptr) ++stats->num_verified;
    if (work.abandoned == abandoned) tracker.Offer(i, score);
  }
  if (stats != nullptr) {
    stats->distance_computations += work.distance_computations;
    stats->postings_visited += work.postings_visited;
    stats->verify_abandoned += work.abandoned;
  }
  return tracker.Sorted();
}

}  // namespace mio
