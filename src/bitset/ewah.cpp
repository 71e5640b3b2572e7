#include "bitset/ewah.hpp"

#include <algorithm>

namespace mio {

using ewah::kAllOnes;
using ewah::LitCount;
using ewah::RunBit;
using ewah::RunLen;

// ---------------------------------------------------------------------------
// EwahView: every read operation of the codec
// ---------------------------------------------------------------------------

bool EwahView::Test(std::size_t i) const {
  const std::size_t target_word = i / 64;
  const std::uint64_t mask = std::uint64_t(1) << (i % 64);
  std::size_t pos = 0;
  std::size_t base = 0;
  while (pos < num_words_) {
    const std::uint64_t m = words_[pos];
    const std::uint64_t run_len = RunLen(m);
    if (target_word < base + run_len) return RunBit(m);
    base += run_len;
    const std::uint64_t lit = LitCount(m);
    if (target_word < base + lit) {
      return (words_[pos + 1 + (target_word - base)] & mask) != 0;
    }
    base += lit;
    pos += 1 + lit;
  }
  return false;
}

std::size_t EwahView::Count() const {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < num_words_) {
    const std::uint64_t m = words_[pos];
    if (RunBit(m)) count += RunLen(m) * 64;
    const std::uint64_t lit = LitCount(m);
    for (std::uint64_t l = 0; l < lit; ++l) {
      count += __builtin_popcountll(words_[pos + 1 + l]);
    }
    pos += 1 + lit;
  }
  return count;
}

PlainBitset EwahView::ToPlain() const {
  PlainBitset out(size_in_bits_);
  ForEachNonZeroWord(
      [&](std::size_t w, std::uint64_t v) { out.AssignWord(w, v); });
  return out;
}

void EwahView::DecodeInto(PlainBitset* out) const {
  out->Reset();
  out->Resize(size_in_bits_);
  // Word-wise decode: runs of ones fill whole words, literals copy.
  ForEachNonZeroWord(
      [&](std::size_t w, std::uint64_t v) { out->AssignWord(w, v); });
}

bool EwahView::operator==(const EwahView& other) const {
  return ToPlain() == other.ToPlain();
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

void EwahEncoder::AddRunWords(bool bit, std::uint64_t count) {
  std::vector<std::uint64_t>& buf = *out_;
  while (count > 0) {
    if (marker_ == kNoMarker) NewMarker();
    std::uint64_t m = buf[marker_];
    const bool can_extend =
        LitCount(m) == 0 && (RunLen(m) == 0 || RunBit(m) == bit);
    if (!can_extend) {
      NewMarker();
      m = 0;
    }
    if (RunLen(m) == 0) m = (m & ~std::uint64_t(1)) | (bit ? 1u : 0u);
    const std::uint64_t add = std::min(count, ewah::kMaxRunLen - RunLen(m));
    m = (m & ~(ewah::kMaxRunLen << 1)) | ((RunLen(m) + add) << 1);
    buf[marker_] = m;
    count -= add;
    if (count > 0) NewMarker();
  }
}

void EwahEncoder::AddRawLiteral(std::uint64_t w) {
  if (marker_ == kNoMarker || LitCount((*out_)[marker_]) >= ewah::kMaxLitCount) {
    NewMarker();
  }
  (*out_)[marker_] += std::uint64_t(1) << 33;
  out_->push_back(w);
}

void EwahEncoder::AddLiteralWord(std::uint64_t w) {
  if (w == 0) {
    AddRunWords(false, 1);
  } else if (w == kAllOnes) {
    AddRunWords(true, 1);
  } else {
    AddRawLiteral(w);
  }
}

void EwahPool::ShrinkToFit() {
  words_.shrink_to_fit();
  begin_.shrink_to_fit();
  size_bits_.shrink_to_fit();
}

std::size_t EwahPool::HeapBytes() const {
  return words_.capacity() * sizeof(std::uint64_t) +
         begin_.capacity() * sizeof(std::uint32_t) +
         size_bits_.capacity() * sizeof(std::uint32_t);
}

// ---------------------------------------------------------------------------
// Ewah: building
// ---------------------------------------------------------------------------

Ewah::Ewah(EwahView v)
    : buffer_(v.words(), v.words() + v.NumWords()),
      size_in_bits_(v.SizeInBits()) {
  for (std::size_t pos = 0; pos < buffer_.size();
       pos += 1 + LitCount(buffer_[pos])) {
    rlw_pos_ = pos;
  }
}

void Ewah::AddRunWords(bool bit, std::uint64_t count) {
  EwahEncoder enc = Encoder();
  enc.AddRunWords(bit, count);
  rlw_pos_ = enc.marker();
  size_in_bits_ += count * 64;
}

void Ewah::AddLiteralWord(std::uint64_t w) {
  EwahEncoder enc = Encoder();
  enc.AddLiteralWord(w);
  rlw_pos_ = enc.marker();
  size_in_bits_ += 64;
}

void Ewah::Set(std::size_t i) {
  const std::size_t cur_words = WordCount();
  const std::size_t target_word = i / 64;
  if (target_word >= cur_words) {
    // Append path: first fold a completed all-ones literal tail into a
    // ones run (incremental ascending sets fill words left to right, so
    // dense regions would otherwise stay uncompressed), then pad with
    // zero words and emit the word holding bit i. EwahIdEncoder mirrors
    // this sequence word for word.
    EwahEncoder enc = Encoder();
    if (!buffer_.empty() && LitCount(buffer_[rlw_pos_]) >= 1 &&
        buffer_.back() == kAllOnes) {
      buffer_[rlw_pos_] -= std::uint64_t(1) << 33;
      buffer_.pop_back();
      enc.AddRunWords(true, 1);
    }
    if (target_word > cur_words) {
      enc.AddRunWords(false, target_word - cur_words);
    }
    enc.AddLiteralWord(std::uint64_t(1) << (i % 64));
    rlw_pos_ = enc.marker();
    size_in_bits_ = i + 1;
    return;
  }
  InPlaceSet(i);
  size_in_bits_ = std::max(size_in_bits_, i + 1);
}

void Ewah::InPlaceSet(std::size_t i) {
  const std::size_t target_word = i / 64;
  const std::uint64_t mask = std::uint64_t(1) << (i % 64);
  std::size_t pos = 0;
  std::size_t base = 0;  // first word index covered by the current block
  while (pos < buffer_.size()) {
    const std::uint64_t m = buffer_[pos];
    const std::uint64_t run_len = RunLen(m);
    if (target_word < base + run_len) {
      if (RunBit(m)) return;  // inside a run of ones: already set
      SlowSet(i);             // inside a zero run: structural patch
      return;
    }
    base += run_len;
    const std::uint64_t lit = LitCount(m);
    if (target_word < base + lit) {
      buffer_[pos + 1 + (target_word - base)] |= mask;
      return;
    }
    base += lit;
    pos += 1 + lit;
  }
  SlowSet(i);  // defensive: logical size said the word exists
}

void Ewah::SlowSet(std::size_t i) {
  PlainBitset plain = ToPlain();
  plain.Set(i);
  const std::size_t bits = std::max(size_in_bits_, i + 1);
  *this = FromPlain(plain);
  size_in_bits_ = bits;
}

Ewah Ewah::FromPlain(const PlainBitset& plain) {
  Ewah out;
  EwahEncoder enc = out.Encoder();
  for (std::uint64_t w : plain.words()) enc.AddLiteralWord(w);
  out.rlw_pos_ = enc.marker();
  out.size_in_bits_ = plain.SizeInBits();
  return out;
}

// ---------------------------------------------------------------------------
// Logical operations
// ---------------------------------------------------------------------------

namespace {

/// Streams the logical words of an EWAH view, exposing run-level bulk
/// access so run/run regions are combined without materialisation. Once
/// the words are exhausted it yields an infinite zero run, which lets the
/// binary-op loop treat operands of different logical size uniformly.
class WordSource {
 public:
  explicit WordSource(EwahView v) : words_(v.words()), n_(v.NumWords()) {
    Normalize();
  }

  /// True if the current position is inside a run (always true once
  /// exhausted, as an endless zero run).
  bool InRun() {
    Normalize();
    return run_rem_ > 0;
  }

  std::uint64_t RunAvail() const { return run_rem_; }
  std::uint64_t RunWord() const {
    return run_bit_ ? kAllOnes : std::uint64_t(0);
  }
  void ConsumeRun(std::uint64_t t) { run_rem_ -= t; }

  /// Consumes and returns one logical word (run or literal).
  std::uint64_t NextWord() {
    Normalize();
    if (run_rem_ > 0) {
      --run_rem_;
      return RunWord();
    }
    --lit_rem_;
    return words_[lit_pos_++];
  }

 private:
  void Normalize() {
    while (!exhausted_ && run_rem_ == 0 && lit_rem_ == 0) {
      if (pos_ >= n_) {
        exhausted_ = true;
        break;
      }
      const std::uint64_t m = words_[pos_];
      run_bit_ = RunBit(m);
      run_rem_ = RunLen(m);
      lit_rem_ = LitCount(m);
      lit_pos_ = pos_ + 1;
      pos_ += 1 + LitCount(m);
    }
    if (exhausted_ && run_rem_ == 0) {
      run_bit_ = false;
      run_rem_ = ~std::uint64_t(0);  // endless zero run
    }
  }

  const std::uint64_t* words_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool run_bit_ = false;
  std::uint64_t run_rem_ = 0;
  std::size_t lit_pos_ = 0;
  std::uint64_t lit_rem_ = 0;
  bool exhausted_ = false;
};

/// Encodes op(a, b) word by word into *enc, over the longer operand's
/// logical words.
template <typename Op>
void CombineInto(EwahView a, EwahView b, Op op, EwahEncoder* enc) {
  const std::uint64_t total = std::max(a.WordCount(), b.WordCount());
  WordSource sa(a);
  WordSource sb(b);
  std::uint64_t done = 0;
  while (done < total) {
    if (sa.InRun() && sb.InRun()) {
      const std::uint64_t t =
          std::min({sa.RunAvail(), sb.RunAvail(), total - done});
      enc->AddRunWords(op(sa.RunWord(), sb.RunWord()) != 0, t);
      sa.ConsumeRun(t);
      sb.ConsumeRun(t);
      done += t;
    } else {
      enc->AddLiteralWord(op(sa.NextWord(), sb.NextWord()));
      ++done;
    }
  }
}

constexpr auto kOr = [](std::uint64_t x, std::uint64_t y) { return x | y; };

}  // namespace

void Ewah::OrWith(EwahView other) {
  // The accumulator pattern (lower/upper bounding OR a bitset per key or
  // per point) is the hottest loop in the system; reuse a per-thread
  // scratch buffer so each OR costs no allocation once capacity warms up.
  thread_local std::vector<std::uint64_t> scratch;
  scratch.clear();
  EwahEncoder enc(&scratch);
  CombineInto(view(), other, kOr, &enc);
  size_in_bits_ = std::max(size_in_bits_, other.SizeInBits());
  std::swap(buffer_, scratch);
  rlw_pos_ = enc.marker();
}

template <typename Op>
Ewah Ewah::BinaryOp(EwahView a, EwahView b, Op op) {
  Ewah out;
  EwahEncoder enc = out.Encoder();
  CombineInto(a, b, op, &enc);
  out.rlw_pos_ = enc.marker();
  out.size_in_bits_ = std::max(a.SizeInBits(), b.SizeInBits());
  return out;
}

Ewah Ewah::Or(EwahView a, EwahView b) { return BinaryOp(a, b, kOr); }

Ewah Ewah::And(EwahView a, EwahView b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x & y; });
}

Ewah Ewah::AndNot(EwahView a, EwahView b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x & ~y; });
}

Ewah Ewah::Xor(EwahView a, EwahView b) {
  return BinaryOp(a, b,
                  [](std::uint64_t x, std::uint64_t y) { return x ^ y; });
}

}  // namespace mio
