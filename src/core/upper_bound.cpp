#include "core/upper_bound.hpp"

#include <algorithm>

#include "bitset/union_accumulator.hpp"
#include "common/guardrails.hpp"
#include "obs/metrics.hpp"

namespace mio {

void SortCandidates(const std::vector<std::uint32_t>& tau_upp,
                    std::vector<ObjectId>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [&](ObjectId a, ObjectId b) {
              if (tau_upp[a] != tau_upp[b]) return tau_upp[a] > tau_upp[b];
              return a < b;
            });
}

UpperBoundResult UpperBounding(BiGrid& grid, std::uint32_t threshold,
                               const LabelSet* use_labels,
                               LabelSet* record_labels, QueryStats* stats,
                               QueryGuard* guard) {
  const ObjectSet& objects = grid.objects();
  const std::size_t n = objects.size();

  UpperBoundResult res;
  res.tau_upp.assign(n, 0);
  res.candidates.reserve(n / 4 + 1);

  UnionAccumulator acc(n);
  for (ObjectId i = 0; i < n; ++i) {
    if (guard != nullptr && (i % kGuardStrideObjects) == 0 && guard->Poll()) {
      break;  // partial candidate queue; usable only for best-so-far
    }
    const Object& o = objects[i];
    acc.Clear();
    std::size_t ors = 0;
    for (std::size_t j = 0; j < o.points.size(); ++j) {
      if (use_labels != nullptr) {
        std::uint8_t l = use_labels->Get(i, j);
        // UPPER-BOUNDING-WITH-LABEL iterates only points labelled 11*.
        if ((l & label::kMap) == 0 || (l & label::kUpper) == 0) continue;
      }
      const CellAdj& adj = grid.EnsureAdj(grid.LargeCellOf(i, j));
      if (record_labels != nullptr && adj.count == 1) {
        // Labeling-1: only o_i occupies this neighbourhood — the point is
        // irrelevant to every phase of future same-ceil(r) queries.
        record_labels->labels[i][j] &= static_cast<std::uint8_t>(~label::kMap);
        continue;  // it cannot change acc either (acc will contain bit i)
      }
      const bool changed = acc.Or(adj.bits);
      ++ors;
      if (record_labels != nullptr && !changed) {
        // Labeling-2: the OR changed nothing (Observation 2).
        record_labels->labels[i][j] &=
            static_cast<std::uint8_t>(~label::kUpper);
      }
    }
    const std::size_t count = acc.Count();
    obs::Add(obs::Counter::kUbCellOrs, ors);
    obs::Observe(obs::Histogram::kUbUnionBits, count);
    res.tau_upp[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    if (res.tau_upp[i] >= threshold) res.candidates.push_back(i);
  }

  SortCandidates(res.tau_upp, &res.candidates);
  if (stats != nullptr) stats->num_candidates = res.candidates.size();
  return res;
}

}  // namespace mio
