// Differential tests of the EWAH codec against PlainBitset, plus
// compression-behaviour checks (runs of zeros/ones must compress).
#include "bitset/ewah.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bitset/bitset_stats.hpp"
#include "bitset/plain_bitset.hpp"
#include "bitset/union_accumulator.hpp"
#include "common/random.hpp"

namespace mio {
namespace {

TEST(EwahTest, StartsEmpty) {
  Ewah b;
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.SizeInBits(), 0u);
  EXPECT_FALSE(b.Test(0));
  EXPECT_FALSE(b.Test(12345));
}

TEST(EwahTest, AscendingSetAndTest) {
  Ewah b;
  std::vector<std::size_t> idx = {0, 1, 63, 64, 65, 200, 1000, 100000};
  for (std::size_t i : idx) b.Set(i);
  for (std::size_t i : idx) EXPECT_TRUE(b.Test(i)) << i;
  EXPECT_FALSE(b.Test(2));
  EXPECT_FALSE(b.Test(999));
  EXPECT_FALSE(b.Test(100001));
  EXPECT_EQ(b.Count(), idx.size());
  EXPECT_EQ(b.SizeInBits(), 100001u);
}

TEST(EwahTest, SetIsIdempotent) {
  Ewah b;
  b.Set(100);
  b.Set(100);
  b.Set(100);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(EwahTest, SparseBitsetCompresses) {
  Ewah b;
  b.Set(0);
  b.Set(1000000);  // ~15 KiB of zero run in between
  EXPECT_LT(b.CompressedBytes(), 100u);
  EXPECT_GT(b.UncompressedBytes(), 100000u);
}

TEST(EwahTest, DenseRunCompresses) {
  // 64k consecutive ones: the word-aligned interior must fold into a run.
  Ewah b;
  for (std::size_t i = 0; i < 65536; ++i) b.Set(i);
  EXPECT_EQ(b.Count(), 65536u);
  EXPECT_LT(b.CompressedBytes(), 64u);
}

TEST(EwahTest, OutOfOrderSetUsesSlowPathCorrectly) {
  Ewah b;
  b.Set(10000);  // creates a long zero run
  b.Set(5);      // patches inside the run (decompress-recompress path)
  b.Set(7000);
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Test(7000));
  EXPECT_TRUE(b.Test(10000));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(EwahTest, InPlaceSetIntoLiteralWord) {
  Ewah b;
  b.Set(3);
  b.Set(10);  // same word: literal or-in, no structure change
  EXPECT_TRUE(b.Test(3));
  EXPECT_TRUE(b.Test(10));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(EwahTest, SetInsideRunOfOnesIsNoop) {
  Ewah b;
  for (std::size_t i = 0; i < 200; ++i) b.Set(i);
  std::size_t bytes = b.CompressedBytes();
  b.Set(64);  // inside the ones run
  EXPECT_EQ(b.CompressedBytes(), bytes);
  EXPECT_EQ(b.Count(), 200u);
}

TEST(EwahTest, PlainRoundTrip) {
  Pcg32 rng(11);
  PlainBitset plain;
  for (int i = 0; i < 500; ++i) plain.Set(rng.NextBounded(10000));
  Ewah compressed = Ewah::FromPlain(plain);
  EXPECT_EQ(compressed.Count(), plain.Count());
  EXPECT_TRUE(compressed.ToPlain() == plain);
}

TEST(EwahTest, ForEachSetBitMatchesPlain) {
  Pcg32 rng(13);
  Ewah b;
  PlainBitset ref;
  std::size_t last = 0;
  for (int i = 0; i < 300; ++i) {
    last += 1 + rng.NextBounded(500);
    b.Set(last);
    ref.Set(last);
  }
  std::vector<std::size_t> got;
  b.ForEachSetBit([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, ref.SetBits());
}

TEST(EwahTest, ResetClears) {
  Ewah b;
  b.Set(100);
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.SizeInBits(), 0u);
  b.Set(3);
  EXPECT_EQ(b.Count(), 1u);
}

TEST(EwahTest, EqualityIsLogical) {
  Ewah a, b;
  a.Set(5);
  b.Set(5);
  b.Set(100000);  // differs
  EXPECT_FALSE(a == b);
  a.Set(100000);
  EXPECT_TRUE(a == b);
}

// --- logical op correctness, differential against PlainBitset -------------

struct OpCase {
  std::uint64_t seed;
  double density_a;
  double density_b;
  std::size_t universe;
};

class EwahOpsTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(EwahOpsTest, MatchesPlainBitsetSemantics) {
  const OpCase& c = GetParam();
  Pcg32 rng(c.seed);
  PlainBitset pa, pb;
  Ewah ea, eb;
  // Build both representations with ascending sets (the supported fast
  // path) at the parameterised densities.
  for (std::size_t i = 0; i < c.universe; ++i) {
    if (rng.NextDouble() < c.density_a) {
      pa.Set(i);
      ea.Set(i);
    }
    if (rng.NextDouble() < c.density_b) {
      pb.Set(i);
      eb.Set(i);
    }
  }
  ASSERT_TRUE(ea.ToPlain() == pa);
  ASSERT_TRUE(eb.ToPlain() == pb);

  {
    Ewah got = Ewah::Or(ea, eb);
    PlainBitset want = pa;
    want.OrWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "OR seed=" << c.seed;
    EXPECT_EQ(got.Count(), want.Count());
  }
  {
    Ewah got = Ewah::And(ea, eb);
    PlainBitset want = pa;
    want.AndWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "AND seed=" << c.seed;
  }
  {
    Ewah got = Ewah::AndNot(ea, eb);
    PlainBitset want = pa;
    want.AndNotWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "ANDNOT seed=" << c.seed;
  }
  {
    Ewah got = Ewah::Xor(ea, eb);
    PlainBitset want = pa;
    want.XorWith(pb);
    EXPECT_TRUE(got.ToPlain() == want) << "XOR seed=" << c.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, EwahOpsTest,
    ::testing::Values(
        OpCase{1, 0.0, 0.0, 1000},      // both empty
        OpCase{2, 0.001, 0.001, 20000}, // very sparse
        OpCase{3, 0.01, 0.5, 5000},     // sparse vs dense
        OpCase{4, 0.5, 0.5, 5000},      // dense
        OpCase{5, 0.99, 0.99, 5000},    // near-full (ones runs)
        OpCase{6, 0.2, 0.0, 3000},      // one side empty
        OpCase{7, 1.0, 0.3, 2000},      // full side
        OpCase{8, 0.05, 0.05, 100000},  // large sparse
        OpCase{9, 0.3, 0.7, 777},       // non-word-aligned universe
        OpCase{10, 0.5, 0.5, 64},       // single word
        OpCase{11, 0.5, 0.5, 65}));     // word boundary + 1

TEST(EwahOpsTest, DifferentSizesTreatMissingAsZero) {
  Ewah small, big;
  small.Set(3);
  big.Set(3);
  big.Set(100000);
  Ewah o = Ewah::Or(small, big);
  EXPECT_EQ(o.Count(), 2u);
  Ewah a = Ewah::And(small, big);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(3));
  Ewah d = Ewah::AndNot(big, small);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(100000));
}

TEST(EwahOpsTest, OrWithAccumulatorPattern) {
  // The BIGrid lower bound ORs many cell bitsets into an accumulator.
  Pcg32 rng(21);
  Ewah acc;
  PlainBitset ref;
  for (int cell = 0; cell < 50; ++cell) {
    Ewah cell_bits;
    std::size_t base = rng.NextBounded(5000);
    for (int j = 0; j < 20; ++j) {
      std::size_t idx = base + j * (1 + rng.NextBounded(10));
      cell_bits.Set(idx);
      ref.Set(idx);
    }
    acc.OrWith(cell_bits);
  }
  EXPECT_TRUE(acc.ToPlain() == ref);
}

TEST(EwahTest, ForEachNonZeroWordMatchesDecode) {
  Pcg32 rng(17, 3);
  Ewah e;
  for (std::size_t i = 0; i < 5000; i += 1 + rng.NextBounded(40)) e.Set(i);
  for (std::size_t i = 6000; i < 7000; ++i) e.Set(i);  // a run of ones
  PlainBitset want = e.ToPlain();
  PlainBitset got;
  std::size_t prev = 0;
  bool first = true;
  e.ForEachNonZeroWord([&](std::size_t w, std::uint64_t v) {
    EXPECT_NE(v, 0u);
    if (!first) {
      EXPECT_GT(w, prev);
    }
    prev = w;
    first = false;
    got.AssignWord(w, v);
  });
  EXPECT_TRUE(got == want);
}

TEST(UnionAccumulatorTest, MatchesEwahOrAndReportsChange) {
  Pcg32 rng(23, 5);
  for (int trial = 0; trial < 20; ++trial) {
    UnionAccumulator acc(300);  // operands reach past it: it must grow
    UnionAccumulator even, odd;  // partial unions, merged below
    Ewah ref;
    for (int op = 0; op < 12; ++op) {
      Ewah b;
      std::size_t i = rng.NextBounded(200);
      const std::size_t end = i + rng.NextBounded(2000);
      for (; i < end; i += 1 + rng.NextBounded(op % 3 == 0 ? 2 : 90)) {
        b.Set(i);
      }
      const std::size_t before = ref.Count();
      ref.OrWith(b);
      EXPECT_EQ(acc.Or(b), ref.Count() != before);
      EXPECT_EQ(acc.Count(), ref.Count());
      (op % 2 == 0 ? even : odd).Or(b);
    }
    // Merging the partial unions rebuilds the whole one.
    UnionAccumulator merged;
    merged.Or(even);
    merged.Or(odd);
    EXPECT_EQ(merged.Count(), ref.Count());
    EXPECT_TRUE(merged.ToEwah() == ref);
    EXPECT_FALSE(merged.Or(acc));
    EXPECT_FALSE(acc.Or(merged));
    // Or-ing a subset changes nothing.
    EXPECT_FALSE(acc.Or(ref));
    Ewah back = acc.ToEwah();
    EXPECT_TRUE(back == ref);
    EXPECT_EQ(back.Count(), ref.Count());
    acc.Clear();
    EXPECT_EQ(acc.Count(), 0u);
    EXPECT_TRUE(acc.ToEwah().Empty());
  }
}

// --- the empty bitset -------------------------------------------------------

TEST(EwahTest, EmptyAllocatesNothingAndResetKeepsCapacity) {
  Ewah e;
  EXPECT_EQ(e.MemoryUsageBytes(), 0u);
  EXPECT_EQ(e.CompressedBytes(), 0u);
  for (std::size_t i = 0; i < 1000; i += 7) e.Set(i);
  const std::size_t capacity = e.MemoryUsageBytes();
  ASSERT_GT(capacity, 0u);
  e.Reset();
  EXPECT_EQ(e.MemoryUsageBytes(), capacity);
  EXPECT_EQ(e.CompressedBytes(), 0u);
  EXPECT_TRUE(e == Ewah());
}

TEST(EwahTest, EmptyOperandOnEitherSide) {
  Pcg32 rng(29);
  Ewah full;
  for (std::size_t i = 0; i < 3000; i += 1 + rng.NextBounded(50)) full.Set(i);
  for (std::size_t i = 4000; i < 4200; ++i) full.Set(i);  // a ones run
  const PlainBitset want = full.ToPlain();
  const Ewah empty;

  // Reads of the empty bitset.
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_TRUE(empty.Empty());
  EXPECT_FALSE(empty.Test(0));
  EXPECT_FALSE(empty.Test(4100));
  std::size_t calls = 0;
  empty.ForEachSetBit([&](std::size_t) { ++calls; });
  empty.ForEachNonZeroWord([&](std::size_t, std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  PlainBitset decoded = want;  // stale content must be cleared
  empty.DecodeInto(&decoded);
  EXPECT_EQ(decoded.Count(), 0u);
  EXPECT_EQ(empty.ToPlain().Count(), 0u);

  // Binary operations, empty on the left and on the right.
  for (bool empty_left : {true, false}) {
    const Ewah& a = empty_left ? empty : full;
    const Ewah& b = empty_left ? full : empty;
    const char* side = empty_left ? "empty left" : "empty right";
    EXPECT_TRUE(Ewah::Or(a, b).ToPlain() == want) << side;
    EXPECT_EQ(Ewah::And(a, b).Count(), 0u) << side;
    EXPECT_TRUE(Ewah::Xor(a, b).ToPlain() == want) << side;
    EXPECT_TRUE(Ewah::AndNot(a, b).ToPlain() ==
                (empty_left ? PlainBitset() : want))
        << side;
    Ewah acc = a;
    acc.OrWith(b);
    EXPECT_TRUE(acc.ToPlain() == want) << side;
    EXPECT_FALSE(a == b) << side;
  }
  EXPECT_TRUE(empty == Ewah());
  EXPECT_TRUE(Ewah::Or(empty, empty) == empty);
  Ewah acc;
  acc.OrWith(empty);
  EXPECT_TRUE(acc.Empty());

  // Set after empty, including after a Reset.
  Ewah e;
  e.Set(4100);
  EXPECT_EQ(e.Count(), 1u);
  EXPECT_TRUE(e.Test(4100));
  e.Reset();
  e.Set(0);
  e.Set(64);
  EXPECT_EQ(e.Count(), 2u);
  EXPECT_TRUE(e.Test(0));
  EXPECT_TRUE(e.Test(64));
}

// --- the direct encoder and the pool ----------------------------------------

std::vector<std::uint64_t> WordsOf(EwahView v) {
  return std::vector<std::uint64_t>(v.words(), v.words() + v.NumWords());
}

TEST(EwahIdEncoderTest, MatchesSetWordForWord) {
  Pcg32 rng(31, 7);
  std::vector<std::vector<std::size_t>> cases = {
      {},
      {0},
      {63},
      {64},
      {0, 63, 64},
      {0, 1, 63, 64, 65, 127, 128},
      {10000005},
      {3, 100000, 50000000},
  };
  // Runs of 64 or more consecutive ids, aligned and not, so whole words
  // fill with ones (ones-run folding), also as the final word.
  for (std::size_t start : {0, 1, 64, 100}) {
    for (std::size_t len : {63, 64, 65, 128, 200, 640}) {
      std::vector<std::size_t> ids;
      for (std::size_t i = 0; i < len; ++i) ids.push_back(start + i);
      cases.push_back(ids);
      ids.push_back(start + len + 1000);  // a sparse tail after the run
      cases.push_back(ids);
    }
  }
  // Random sparse and mixed ids, with repeats.
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::size_t> ids;
    std::size_t id = rng.NextBounded(200);
    for (int k = 0; k < 300; ++k) {
      ids.push_back(id);
      const std::uint32_t mode = rng.NextBounded(4);
      id += mode == 0 ? 0 : mode == 1 ? 1 : 1 + rng.NextBounded(mode == 2 ? 70 : 5000);
    }
    cases.push_back(ids);
  }

  for (const std::vector<std::size_t>& ids : cases) {
    Ewah ref;
    for (std::size_t id : ids) ref.Set(id);
    EwahPool pool;
    pool.AppendEmpty();  // the bitset under test starts mid-pool
    pool.Append([&](EwahIdEncoder& enc) {
      for (std::size_t id : ids) enc.Add(id);
    });
    ASSERT_EQ(pool.size(), 2u);
    EXPECT_EQ(WordsOf(pool[1]), WordsOf(ref.view()))
        << ids.size() << " ids, first " << (ids.empty() ? 0 : ids[0]);
    EXPECT_EQ(pool[1].SizeInBits(), ref.SizeInBits());
    EXPECT_TRUE(pool[1] == ref.view());
    EXPECT_EQ(pool[0].NumWords(), 0u);
  }
}

TEST(EwahPoolTest, SlotsViewTheirOwnBitsets) {
  Pcg32 rng(37);
  EwahPool pool;
  std::vector<Ewah> want;
  for (int c = 0; c < 50; ++c) {
    std::vector<std::size_t> ids;
    std::size_t id = rng.NextBounded(3000);
    const std::uint32_t count = rng.NextBounded(6);
    for (std::uint32_t k = 0; k < count; ++k) {
      ids.push_back(id);
      id += 1 + rng.NextBounded(500);
    }
    Ewah ref;
    for (std::size_t i : ids) ref.Set(i);
    want.push_back(ref);
    pool.Append([&](EwahIdEncoder& enc) {
      for (std::size_t i : ids) enc.Add(i);
    });
  }
  pool.ShrinkToFit();
  ASSERT_EQ(pool.size(), want.size());
  std::size_t words = 0;
  for (std::size_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(WordsOf(pool[c]), WordsOf(want[c].view())) << "slot " << c;
    EXPECT_EQ(pool[c].Count(), want[c].Count());
    EXPECT_TRUE(Ewah(pool[c]) == want[c]);
    words += pool[c].NumWords();
  }
  EXPECT_EQ(pool.words().size(), words);
  EXPECT_GE(pool.HeapBytes(), words * 8);
}

TEST(EwahStatsTest, CompressionStatsAggregate) {
  BitsetCompressionStats stats;
  Ewah sparse;
  sparse.Set(0);
  sparse.Set(1000000);
  stats.Add(sparse);
  EXPECT_EQ(stats.num_bitsets, 1u);
  EXPECT_GT(stats.SavingsRatio(), 0.99);

  BitsetCompressionStats other;
  other.Add(sparse);
  stats.Merge(other);
  EXPECT_EQ(stats.num_bitsets, 2u);
  EXPECT_FALSE(stats.ToString().empty());

  // A singleton tallies exactly what its encoding would add.
  for (std::size_t id : {0, 63, 64, 5000, 123456}) {
    Ewah one;
    one.Set(id);
    BitsetCompressionStats encoded, tallied;
    encoded.Add(one);
    tallied.AddSingleton(id);
    EXPECT_EQ(tallied.num_bitsets, encoded.num_bitsets);
    EXPECT_EQ(tallied.compressed_bytes, encoded.compressed_bytes) << id;
    EXPECT_EQ(tallied.uncompressed_bytes, encoded.uncompressed_bytes) << id;
  }
}

}  // namespace
}  // namespace mio
