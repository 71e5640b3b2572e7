#include "bitset/plain_bitset.hpp"

#include <algorithm>

namespace mio {

void PlainBitset::Resize(std::size_t bits) {
  if (bits <= size_in_bits_) return;
  size_in_bits_ = bits;
  words_.resize((bits + 63) / 64, 0);
}

std::size_t PlainBitset::Count() const {
  std::size_t c = 0;
  for (std::uint64_t w : words_) c += __builtin_popcountll(w);
  return c;
}

void PlainBitset::OrWith(const PlainBitset& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
    size_in_bits_ = std::max(size_in_bits_, other.size_in_bits_);
  }
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void PlainBitset::AndWith(const PlainBitset& other) {
  std::size_t shared = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < shared; ++i) words_[i] &= other.words_[i];
  for (std::size_t i = shared; i < words_.size(); ++i) words_[i] = 0;
}

void PlainBitset::AndNotWith(const PlainBitset& other) {
  std::size_t shared = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < shared; ++i) words_[i] &= ~other.words_[i];
}

void PlainBitset::XorWith(const PlainBitset& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
    size_in_bits_ = std::max(size_in_bits_, other.size_in_bits_);
  }
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] ^= other.words_[i];
  }
}

void PlainBitset::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
}

std::vector<std::size_t> PlainBitset::SetBits() const {
  std::vector<std::size_t> out;
  out.reserve(Count());
  ForEachSetBit([&](std::size_t i) { out.push_back(i); });
  return out;
}

bool PlainBitset::operator==(const PlainBitset& other) const {
  std::size_t shared = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (words_[i] != other.words_[i]) return false;
  }
  for (std::size_t i = shared; i < words_.size(); ++i) {
    if (words_[i] != 0) return false;
  }
  for (std::size_t i = shared; i < other.words_.size(); ++i) {
    if (other.words_[i] != 0) return false;
  }
  return true;
}

}  // namespace mio
