// Checksums of the on-disk formats.
//
// FNV-1a is the byte-at-a-time hash of the v1 dataset format and of label
// files. Its xor-then-multiply chain costs about 3 cycles a byte, so the
// v2 dataset format uses WordSum instead: 8-byte words spread round-robin
// over four independent lanes, which the CPU runs in parallel. Each lane
// step h' = rotl((h ^ w) * K, 29) is a bijection of h for a fixed word w
// and of w for a fixed h, and the digest xors the lanes after a bijective
// finaliser each. So a change confined to one word — every single-byte
// change included — always changes the digest.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mio {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// FNV-1a of `len` bytes, continuing from `seed` (kFnvOffset to start).
inline std::uint64_t Fnv1a(const void* data, std::size_t len,
                           std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Four-lane word checksum over a stream of 8-byte words, fed in blocks
/// whose lengths are multiples of 8. Word k of the stream goes to lane
/// k mod 4, so the digest does not depend on how the stream is split.
class WordSum {
 public:
  /// Folds in `len` bytes (a multiple of 8) at `data`.
  void Update(const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::size_t words = len / 8;
    // Realign so that the unrolled loop starts on lane 0.
    for (; words > 0 && (count_ & 3) != 0; --words, p += 8) {
      Step(&lane_[count_++ & 3], Load(p));
    }
    std::uint64_t a = lane_[0], b = lane_[1], c = lane_[2], d = lane_[3];
    for (; words >= 4; words -= 4, p += 32, count_ += 4) {
      Step(&a, Load(p));
      Step(&b, Load(p + 8));
      Step(&c, Load(p + 16));
      Step(&d, Load(p + 24));
    }
    lane_[0] = a;
    lane_[1] = b;
    lane_[2] = c;
    lane_[3] = d;
    for (; words > 0; --words, p += 8) Step(&lane_[count_++ & 3], Load(p));
  }

  std::uint64_t Digest() const {
    return Mix(lane_[0]) ^ std::rotl(Mix(lane_[1]), 16) ^
           std::rotl(Mix(lane_[2]), 32) ^ std::rotl(Mix(lane_[3]), 48);
  }

 private:
  static constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;  // odd

  static std::uint64_t Load(const unsigned char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }
  static void Step(std::uint64_t* h, std::uint64_t w) {
    *h = std::rotl((*h ^ w) * kMul, 29);
  }
  /// MurmurHash3's 64-bit finaliser: a bijection that spreads every input
  /// bit over the whole word.
  static std::uint64_t Mix(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return h;
  }

  std::uint64_t lane_[4] = {kFnvOffset, kFnvOffset + 1, kFnvOffset + 2,
                            kFnvOffset + 3};
  std::uint64_t count_ = 0;  ///< words folded in so far
};

}  // namespace mio
