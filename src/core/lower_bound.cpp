#include "core/lower_bound.hpp"

#include <algorithm>

#include "bitset/union_accumulator.hpp"
#include "common/guardrails.hpp"
#include "obs/metrics.hpp"

namespace mio {

std::uint32_t LowerBoundResult::KthLargest(std::size_t k) const {
  if (tau_low.empty()) return 0;
  k = std::min(std::max<std::size_t>(k, 1), tau_low.size());
  std::vector<std::uint32_t> copy = tau_low;
  std::nth_element(copy.begin(), copy.begin() + (k - 1), copy.end(),
                   std::greater<>());
  return copy[k - 1];
}

LowerBoundResult LowerBounding(const BiGrid& grid, bool keep_bitsets,
                               QueryGuard* guard) {
  const std::size_t n = grid.objects().size();
  LowerBoundResult res;
  res.tau_low.assign(n, 0);
  if (keep_bitsets) res.lb_bitsets.resize(n);

  UnionAccumulator acc(n);
  for (ObjectId i = 0; i < n; ++i) {
    if (guard != nullptr && (i % kGuardStrideObjects) == 0 && guard->Poll()) {
      break;  // partial tau_low entries remain valid lower bounds
    }
    acc.Clear();
    for (std::uint32_t cell : grid.KeyList(i)) acc.Or(grid.SmallBits(cell));
    std::size_t count = acc.Count();
    obs::Add(obs::Counter::kLbCellOrs, grid.KeyList(i).size());
    obs::Observe(obs::Histogram::kLbKeyListLen, grid.KeyList(i).size());
    obs::Observe(obs::Histogram::kLbUnionBits, count);
    // The union contains o_i's own bit whenever the key list is non-empty
    // (its point put it there); Lemma 1's "-1" removes it.
    res.tau_low[i] =
        count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    res.tau_low_max = std::max(res.tau_low_max, res.tau_low[i]);
    if (keep_bitsets) res.lb_bitsets[i] = acc.ToEwah();
  }
  return res;
}

}  // namespace mio
