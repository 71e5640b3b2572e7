// Compression statistics over collections of EWAH bitsets. The paper's
// footnote 4 reports 80-99.9% byte savings versus uncompressed bitsets on
// the default workload; bench_micro_bitset regenerates that claim with
// these helpers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bitset/ewah.hpp"

namespace mio {

/// Aggregate byte accounting for a set of compressed bitsets.
struct BitsetCompressionStats {
  std::size_t num_bitsets = 0;
  std::size_t compressed_bytes = 0;
  std::size_t uncompressed_bytes = 0;

  /// Fraction of bytes saved by compression, in [0, 1). Negative if the
  /// compressed form is larger (tiny, dense bitsets).
  double SavingsRatio() const {
    if (uncompressed_bytes == 0) return 0.0;
    return 1.0 - static_cast<double>(compressed_bytes) /
                     static_cast<double>(uncompressed_bytes);
  }

  void Add(EwahView b) {
    ++num_bitsets;
    compressed_bytes += b.CompressedBytes();
    uncompressed_bytes += b.UncompressedBytes();
  }

  /// Adds the bitset {id} without encoding it: a lone bit always encodes
  /// as one marker plus one literal word.
  void AddSingleton(std::size_t id) {
    ++num_bitsets;
    compressed_bytes += 2 * 8;
    uncompressed_bytes += (id / 64 + 1) * 8;
  }

  void Merge(const BitsetCompressionStats& other) {
    num_bitsets += other.num_bitsets;
    compressed_bytes += other.compressed_bytes;
    uncompressed_bytes += other.uncompressed_bytes;
  }

  std::string ToString() const;
};

}  // namespace mio
