// Union accumulator for the bounding phases (paper Algorithms 4-5): each
// object's bound is the cardinality of an OR of compressed cell bitsets.
// Folding those ORs into an EWAH accumulator re-encodes the whole
// accumulator on every OR; this one keeps the union as uncompressed words
// and remembers which words it touched, so an OR costs the operand's
// compressed size and Count/Clear cost the touched words — never the
// universe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitset/ewah.hpp"

namespace mio {

class UnionAccumulator {
 public:
  /// An empty union over bit indices [0, bits); grows if an operand
  /// reaches past it.
  explicit UnionAccumulator(std::size_t bits = 0)
      : words_((bits + 63) / 64, 0) {}

  /// this |= b. Returns true when the OR set at least one new bit.
  bool Or(EwahView b) {
    bool changed = false;
    b.ForEachNonZeroWord([&](std::size_t w, std::uint64_t v) {
      if (w >= words_.size()) words_.resize(w + 1, 0);
      const std::uint64_t old = words_[w];
      const std::uint64_t now = old | v;
      if (now == old) return;
      if (old == 0) touched_.push_back(static_cast<std::uint32_t>(w));
      words_[w] = now;
      changed = true;
    });
    return changed;
  }

  /// this |= b — merges a per-thread partial union. Returns true when the
  /// OR set at least one new bit.
  bool Or(const UnionAccumulator& b) {
    if (b.words_.size() > words_.size()) words_.resize(b.words_.size(), 0);
    bool changed = false;
    for (std::uint32_t w : b.touched_) {
      const std::uint64_t old = words_[w];
      const std::uint64_t now = old | b.words_[w];
      if (now == old) continue;
      if (old == 0) touched_.push_back(w);
      words_[w] = now;
      changed = true;
    }
    return changed;
  }

  /// Number of set bits in the union.
  std::size_t Count() const {
    std::size_t n = 0;
    for (std::uint32_t w : touched_) {
      n += static_cast<std::size_t>(__builtin_popcountll(words_[w]));
    }
    return n;
  }

  /// Empties the union (touched words only).
  void Clear() {
    for (std::uint32_t w : touched_) words_[w] = 0;
    touched_.clear();
  }

  /// The union as a compressed bitset.
  Ewah ToEwah() {
    Ewah out;
    EncodeTo(&out);
    return out;
  }

  /// Emits the union's words in ascending order, zero runs between them,
  /// into an Ewah or an EwahEncoder (anything with AddRunWords and
  /// AddLiteralWord).
  template <typename Sink>
  void EncodeTo(Sink* out) {
    std::sort(touched_.begin(), touched_.end());
    std::size_t next = 0;  // first word not yet emitted
    for (std::uint32_t w : touched_) {
      if (w > next) out->AddRunWords(false, w - next);
      out->AddLiteralWord(words_[w]);
      next = static_cast<std::size_t>(w) + 1;
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> touched_;  ///< indices of non-zero words
};

}  // namespace mio
