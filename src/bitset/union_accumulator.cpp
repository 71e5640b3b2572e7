#include "bitset/union_accumulator.hpp"

#include <algorithm>

namespace mio {

Ewah UnionAccumulator::ToEwah() {
  std::sort(touched_.begin(), touched_.end());
  Ewah out;
  std::size_t next = 0;  // first word not yet emitted
  for (std::uint32_t w : touched_) {
    if (w > next) out.AddRunWords(false, w - next);
    out.AddLiteralWord(words_[w]);
    next = static_cast<std::size_t>(w) + 1;
  }
  return out;
}

}  // namespace mio
