#include "object/sampling.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.hpp"

namespace mio {

ObjectSet SampleObjects(const ObjectSet& input, double rate,
                        std::uint64_t seed) {
  rate = std::clamp(rate, 0.0, 1.0);
  std::size_t take =
      static_cast<std::size_t>(rate * static_cast<double>(input.size()));
  ObjectSet out;
  if (take == 0) return out;
  if (take >= input.size()) return input;
  std::vector<std::uint32_t> idx(input.size());
  std::iota(idx.begin(), idx.end(), 0u);
  Pcg32 rng(seed);
  // Partial Fisher-Yates: only the first `take` slots need shuffling.
  for (std::size_t i = 0; i < take; ++i) {
    std::size_t j =
        i + rng.NextBounded(static_cast<std::uint32_t>(idx.size() - i));
    std::swap(idx[i], idx[j]);
  }
  std::sort(idx.begin(), idx.begin() + take);  // keep original order stable
  for (std::size_t i = 0; i < take; ++i) out.Add(input[idx[i]]);
  return out;
}

}  // namespace mio
