// 64-bit EWAH (Enhanced Word-Aligned Hybrid) compressed bitset,
// implemented from scratch after Lemire, Kaser & Aouiche, "Sorting
// improves word-aligned bitmap indexes" (DKE 2010) — the codec the paper
// uses for every BIGrid cell bitset (paper §III-A, footnote 3).
//
// Encoding: the buffer is a sequence of blocks. Each block starts with a
// 64-bit marker word:
//   bit  0      : the "running bit" (value of the run)
//   bits 1..32  : run length, in 64-bit words (up to 2^32-1)
//   bits 33..63 : number of literal (verbatim) words following the marker
// Runs compress all-zero stretches (sparse space) and all-one stretches
// (dense space); literal words hold everything else verbatim. The empty
// bitset has no words at all.
//
// The codec is split by role:
//   EwahView      — read-only access to words held anywhere (an Ewah, or a
//                   slice of a pooled word array); every read operation is
//                   implemented here once.
//   EwahEncoder   — appends one bitset's words to the end of a vector.
//   EwahIdEncoder — encodes an ascending id list straight into words,
//                   word for word what Ewah::Set produces.
//   EwahPool      — many bitsets in one word array plus offsets, built
//                   with EwahIdEncoder (the BIGrid cell storage).
//   Ewah          — an owning, growable bitset with logical operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitset/plain_bitset.hpp"

namespace mio {

namespace ewah {

inline constexpr std::uint64_t kMaxRunLen = 0xFFFFFFFFull;
inline constexpr std::uint64_t kMaxLitCount = 0x7FFFFFFFull;
inline constexpr std::uint64_t kAllOnes = ~std::uint64_t(0);

inline bool RunBit(std::uint64_t marker) { return marker & 1u; }
inline std::uint64_t RunLen(std::uint64_t marker) {
  return (marker >> 1) & kMaxRunLen;
}
inline std::uint64_t LitCount(std::uint64_t marker) { return marker >> 33; }

}  // namespace ewah

/// \brief Read-only view of an EWAH-encoded bitset: `num_words` buffer
/// words at `words`, representing `size_in_bits` logical bits. Cheap to
/// copy; the words must outlive it.
class EwahView {
 public:
  EwahView() = default;
  EwahView(const std::uint64_t* words, std::size_t num_words,
           std::size_t size_in_bits)
      : words_(words), num_words_(num_words), size_in_bits_(size_in_bits) {}

  const std::uint64_t* words() const { return words_; }
  /// Number of encoded (compressed) words.
  std::size_t NumWords() const { return num_words_; }

  /// Number of logical bits represented.
  std::size_t SizeInBits() const { return size_in_bits_; }
  /// Number of logical 64-bit words represented.
  std::size_t WordCount() const { return (size_in_bits_ + 63) / 64; }
  /// Compressed footprint in bytes.
  std::size_t CompressedBytes() const { return num_words_ * 8; }
  /// What an uncompressed bitset of the same logical size would occupy.
  std::size_t UncompressedBytes() const { return WordCount() * 8; }

  /// Tests bit i. O(number of markers).
  bool Test(std::size_t i) const;
  /// Number of set bits. O(compressed size).
  std::size_t Count() const;
  /// True iff no bit is set.
  bool Empty() const { return Count() == 0; }

  /// Invokes f(index) for every set bit in ascending order.
  template <typename F>
  void ForEachSetBit(F&& f) const {
    ForEachNonZeroWord([&](std::size_t w, std::uint64_t word) {
      while (word != 0) {
        f(w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
        word &= word - 1;
      }
    });
  }

  /// Invokes f(word_index, word) for every non-zero logical word in
  /// ascending order (runs of ones expand to all-ones words; zero runs
  /// are skipped), so a consumer pays for the compressed size, not the
  /// universe.
  template <typename F>
  void ForEachNonZeroWord(F&& f) const {
    std::size_t pos = 0;
    std::size_t word = 0;
    while (pos < num_words_) {
      const std::uint64_t m = words_[pos];
      const std::uint64_t run_len = ewah::RunLen(m);
      if (ewah::RunBit(m)) {
        for (std::uint64_t w = 0; w < run_len; ++w) f(word + w, ewah::kAllOnes);
      }
      word += run_len;
      const std::uint64_t lit = ewah::LitCount(m);
      for (std::uint64_t l = 0; l < lit; ++l) {
        const std::uint64_t v = words_[pos + 1 + l];
        if (v != 0) f(word + l, v);
      }
      word += lit;
      pos += 1 + lit;
    }
  }

  /// Decompresses to an uncompressed bitset.
  PlainBitset ToPlain() const;
  /// Decompresses into an existing bitset (cleared first), reusing its
  /// capacity — the allocation-free variant for hot-path scratch reuse.
  void DecodeInto(PlainBitset* out) const;

  /// Logical equality (same set bits).
  bool operator==(const EwahView& other) const;

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t num_words_ = 0;
  std::size_t size_in_bits_ = 0;
};

/// \brief Appends one bitset's EWAH words, in logical word order, to the
/// end of a caller-owned vector (which may already hold other bitsets).
/// Ewah and the pooled encoders write through it.
class EwahEncoder {
 public:
  static constexpr std::size_t kNoMarker = ~std::size_t(0);

  /// Continues the bitset whose current marker is `(*out)[marker]`, or
  /// starts a new one at the end of *out (kNoMarker).
  explicit EwahEncoder(std::vector<std::uint64_t>* out,
                       std::size_t marker = kNoMarker)
      : out_(out), marker_(marker) {}

  /// Appends `count` words of all-`bit`.
  void AddRunWords(bool bit, std::uint64_t count);
  /// Appends one word, compressing all-zero / all-one words into runs.
  void AddLiteralWord(std::uint64_t w);
  /// Appends one word verbatim as a literal.
  void AddRawLiteral(std::uint64_t w);

  /// Index in *out of the current marker (kNoMarker before any word).
  std::size_t marker() const { return marker_; }

 private:
  void NewMarker() {
    out_->push_back(0);
    marker_ = out_->size() - 1;
  }

  std::vector<std::uint64_t>* out_;
  std::size_t marker_;
};

/// \brief Encodes non-decreasing ids straight into EWAH words. The words
/// are exactly what Ewah::Set leaves after the same calls, ones-run
/// folding included (a completed all-ones literal becomes a ones run; the
/// last word stays a literal), so pooled bitsets need no Ewah per bitset.
class EwahIdEncoder {
 public:
  explicit EwahIdEncoder(std::vector<std::uint64_t>* out) : enc_(out) {}

  /// Adds id; ids must arrive in non-decreasing order (repeats are
  /// no-ops).
  void Add(std::size_t id) {
    const std::size_t w = id / 64;
    const std::uint64_t bit = std::uint64_t(1) << (id % 64);
    if (size_in_bits_ != 0 && w == word_) {
      pending_ |= bit;
    } else {
      std::size_t gap = w;
      if (size_in_bits_ != 0) {
        FlushPending();
        gap = w - word_ - 1;
      }
      if (gap > 0) enc_.AddRunWords(false, gap);
      word_ = w;
      pending_ = bit;
    }
    size_in_bits_ = id + 1;
  }

  /// Emits the last word and returns the size in bits (last id + 1; 0
  /// when no id was added).
  std::size_t Finish() {
    if (size_in_bits_ != 0) enc_.AddRawLiteral(pending_);
    return size_in_bits_;
  }

 private:
  void FlushPending() {
    if (pending_ == ewah::kAllOnes) {
      enc_.AddRunWords(true, 1);
    } else {
      enc_.AddRawLiteral(pending_);
    }
  }

  EwahEncoder enc_;
  std::size_t word_ = 0;          ///< logical index of pending_
  std::uint64_t pending_ = 0;     ///< the word still being filled
  std::size_t size_in_bits_ = 0;  ///< last id + 1
};

/// \brief Many EWAH bitsets in one contiguous word array: bitset c is
/// words [begin[c], begin[c+1]) with its own logical size. Built by
/// appending bitsets in order; no per-bitset allocation.
class EwahPool {
 public:
  /// Number of bitsets.
  std::size_t size() const { return size_bits_.size(); }

  EwahView operator[](std::size_t c) const {
    return EwahView(words_.data() + begin_[c], begin_[c + 1] - begin_[c],
                    size_bits_[c]);
  }

  /// Appends one bitset: `fill(enc)` must Add its ids, non-decreasing, to
  /// the EwahIdEncoder it is handed.
  template <typename F>
  void Append(F&& fill) {
    if (begin_.empty()) begin_.push_back(0);
    EwahIdEncoder enc(&words_);
    fill(enc);
    size_bits_.push_back(static_cast<std::uint32_t>(enc.Finish()));
    begin_.push_back(static_cast<std::uint32_t>(words_.size()));
  }

  /// Appends a slot without words, for a bitset the owner does not keep.
  void AppendEmpty() {
    Append([](EwahIdEncoder&) {});
  }

  /// The pooled words, bitset after bitset.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Returns the growth slack of the arrays.
  void ShrinkToFit();
  /// Heap bytes held (capacities).
  std::size_t HeapBytes() const;

  /// Word-for-word equality of the whole pool.
  bool operator==(const EwahPool&) const = default;

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> begin_;      ///< size()+1 offsets into words_
  std::vector<std::uint32_t> size_bits_;  ///< logical size of each bitset
};

/// \brief Append-friendly compressed bitset with word-aligned logical ops.
///
/// Bits must normally be Set() in non-decreasing index order (the BIGrid
/// build satisfies this: object ids arrive ascending). Setting a bit that
/// falls inside an already-emitted zero run triggers a transparent
/// decompress-patch-recompress slow path, so arbitrary writes stay correct,
/// just not fast — random-write-heavy code should use PlainBitset and
/// convert at the boundary. The empty bitset holds no words, so
/// constructing or resetting one allocates nothing. Read operations are
/// EwahView's; an Ewah converts to a view of itself.
class Ewah {
 public:
  Ewah() = default;
  /// Copies the words of `v`.
  explicit Ewah(EwahView v);

  /// Sets bit i to 1. Amortised O(1) for non-decreasing i; O(size) when
  /// patching inside an earlier zero run.
  void Set(std::size_t i);

  EwahView view() const {
    return EwahView(buffer_.data(), buffer_.size(), size_in_bits_);
  }
  operator EwahView() const { return view(); }  // NOLINT: view conversion

  bool Test(std::size_t i) const { return view().Test(i); }
  std::size_t Count() const { return view().Count(); }
  bool Empty() const { return view().Empty(); }
  std::size_t SizeInBits() const { return size_in_bits_; }
  std::size_t WordCount() const { return view().WordCount(); }
  std::size_t CompressedBytes() const { return view().CompressedBytes(); }
  std::size_t UncompressedBytes() const { return view().UncompressedBytes(); }
  /// Heap bytes actually held (capacity).
  std::size_t MemoryUsageBytes() const { return buffer_.capacity() * 8; }

  template <typename F>
  void ForEachSetBit(F&& f) const {
    view().ForEachSetBit(f);
  }
  template <typename F>
  void ForEachNonZeroWord(F&& f) const {
    view().ForEachNonZeroWord(f);
  }
  PlainBitset ToPlain() const { return view().ToPlain(); }
  void DecodeInto(PlainBitset* out) const { view().DecodeInto(out); }

  /// Removes all bits, keeping capacity.
  void Reset() {
    buffer_.clear();
    rlw_pos_ = EwahEncoder::kNoMarker;
    size_in_bits_ = 0;
  }

  /// this = this | other. Allocation-free on the steady state (reuses a
  /// per-thread scratch buffer) — the accumulator op of Algorithms 4-5.
  void OrWith(EwahView other);

  static Ewah Or(EwahView a, EwahView b);
  static Ewah And(EwahView a, EwahView b);
  /// a & ~b ("a minus b", the verification-step candidate subtraction).
  static Ewah AndNot(EwahView a, EwahView b);
  static Ewah Xor(EwahView a, EwahView b);

  /// Compresses an uncompressed bitset.
  static Ewah FromPlain(const PlainBitset& plain);

  /// Logical equality (same set bits).
  bool operator==(const Ewah& other) const { return view() == other.view(); }

  /// Appends `count` words of all-`bit` (used by codec + bulk builders).
  void AddRunWords(bool bit, std::uint64_t count);
  /// Appends one 64-bit word, compressing all-zero / all-one words.
  void AddLiteralWord(std::uint64_t w);

 private:
  EwahEncoder Encoder() { return EwahEncoder(&buffer_, rlw_pos_); }

  /// Set-bit slow path: decompress, patch, recompress.
  void SlowSet(std::size_t i);
  /// Set inside already-represented words (last-word fast path or SlowSet).
  void InPlaceSet(std::size_t i);

  template <typename Op>
  static Ewah BinaryOp(EwahView a, EwahView b, Op op);

  std::vector<std::uint64_t> buffer_;
  std::size_t rlw_pos_ = EwahEncoder::kNoMarker;  ///< current marker
  std::size_t size_in_bits_ = 0;
};

}  // namespace mio
