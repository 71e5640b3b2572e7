// Micro-benchmarks of the bitset substrate (google-benchmark), plus the
// footnote-4 reproduction: on the default workload the BIGrid cell
// bitsets compress by 80-99.9% versus uncompressed bitsets.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bitset/bitset_stats.hpp"
#include "bitset/ewah.hpp"
#include "bitset/plain_bitset.hpp"
#include "bitset/roaring.hpp"
#include "common/random.hpp"
#include "core/bigrid.hpp"
#include "datagen/presets.hpp"

namespace {

// Builds an EWAH + plain pair with `count` set bits over `universe`.
void FillPair(std::uint64_t seed, std::size_t universe, std::size_t count,
              mio::Ewah* e, mio::PlainBitset* p) {
  mio::Pcg32 rng(seed);
  std::size_t step = universe / (count + 1);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    pos += 1 + rng.NextBounded(static_cast<std::uint32_t>(2 * step + 1));
    if (pos >= universe) pos = universe - 1;
    e->Set(pos);
    p->Set(pos);
  }
  p->Resize(universe);
}

void BM_EwahOr(benchmark::State& state) {
  std::size_t universe = static_cast<std::size_t>(state.range(0));
  std::size_t density = static_cast<std::size_t>(state.range(1));
  mio::Ewah a, b;
  mio::PlainBitset pa, pb;
  FillPair(1, universe, universe / density, &a, &pa);
  FillPair(2, universe, universe / density, &b, &pb);
  for (auto _ : state) {
    mio::Ewah c = mio::Ewah::Or(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.counters["compressed_bytes"] =
      static_cast<double>(a.CompressedBytes());
}
BENCHMARK(BM_EwahOr)->Args({1 << 16, 64})->Args({1 << 16, 4})->Args({1 << 20, 1024});

void BM_PlainOr(benchmark::State& state) {
  std::size_t universe = static_cast<std::size_t>(state.range(0));
  std::size_t density = static_cast<std::size_t>(state.range(1));
  mio::Ewah a, b;
  mio::PlainBitset pa, pb;
  FillPair(1, universe, universe / density, &a, &pa);
  FillPair(2, universe, universe / density, &b, &pb);
  for (auto _ : state) {
    mio::PlainBitset c = pa;
    c.OrWith(pb);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_PlainOr)->Args({1 << 16, 64})->Args({1 << 16, 4})->Args({1 << 20, 1024});

void BM_EwahAndNot(benchmark::State& state) {
  mio::Ewah a, b;
  mio::PlainBitset pa, pb;
  FillPair(3, 1 << 16, 1024, &a, &pa);
  FillPair(4, 1 << 16, 1024, &b, &pb);
  for (auto _ : state) {
    mio::Ewah c = mio::Ewah::AndNot(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_EwahAndNot);

void BM_EwahSetAscending(benchmark::State& state) {
  std::size_t count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mio::Ewah b;
    for (std::size_t i = 0; i < count; ++i) b.Set(i * 17);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EwahSetAscending)->Arg(1024)->Arg(16384);

// The same ascending ids encoded straight into a pool, the BIGrid cell
// storage: one bitset of `count` ids per iteration, no Ewah object.
void BM_EwahPoolAppend(benchmark::State& state) {
  std::size_t count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mio::EwahPool pool;
    pool.Append([&](mio::EwahIdEncoder& enc) {
      for (std::size_t i = 0; i < count; ++i) enc.Add(i * 17);
    });
    benchmark::DoNotOptimize(pool);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EwahPoolAppend)->Arg(1024)->Arg(16384);

void BM_EwahCount(benchmark::State& state) {
  mio::Ewah a;
  mio::PlainBitset pa;
  FillPair(5, 1 << 18, 4096, &a, &pa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
}
BENCHMARK(BM_EwahCount);

void BM_EwahToPlain(benchmark::State& state) {
  mio::Ewah a;
  mio::PlainBitset pa;
  FillPair(6, 1 << 18, 4096, &a, &pa);
  for (auto _ : state) {
    mio::PlainBitset p = a.ToPlain();
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_EwahToPlain);

// --- Roaring: the alternative codec (paper footnote 3) --------------------

void BM_RoaringOr(benchmark::State& state) {
  std::size_t universe = static_cast<std::size_t>(state.range(0));
  std::size_t density = static_cast<std::size_t>(state.range(1));
  mio::Ewah ea, eb;
  mio::PlainBitset pa, pb;
  FillPair(1, universe, universe / density, &ea, &pa);
  FillPair(2, universe, universe / density, &eb, &pb);
  mio::Roaring a = mio::Roaring::FromPlain(pa);
  mio::Roaring b = mio::Roaring::FromPlain(pb);
  for (auto _ : state) {
    mio::Roaring c = mio::Roaring::Or(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.counters["compressed_bytes"] =
      static_cast<double>(a.CompressedBytes());
}
BENCHMARK(BM_RoaringOr)->Args({1 << 16, 64})->Args({1 << 16, 4})->Args({1 << 20, 1024});

void BM_RoaringAndNot(benchmark::State& state) {
  mio::Ewah e1, e2;
  mio::PlainBitset pa, pb;
  FillPair(3, 1 << 16, 1024, &e1, &pa);
  FillPair(4, 1 << 16, 1024, &e2, &pb);
  mio::Roaring a = mio::Roaring::FromPlain(pa);
  mio::Roaring b = mio::Roaring::FromPlain(pb);
  for (auto _ : state) {
    mio::Roaring c = mio::Roaring::AndNot(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RoaringAndNot);

void BM_RoaringSetRandomOrder(benchmark::State& state) {
  std::size_t count = static_cast<std::size_t>(state.range(0));
  mio::Pcg32 rng(8);
  std::vector<std::size_t> idx(count);
  for (std::size_t& v : idx) v = rng.NextBounded(1u << 20);
  for (auto _ : state) {
    mio::Roaring b;
    for (std::size_t v : idx) b.Set(v);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_RoaringSetRandomOrder)->Arg(1024)->Arg(16384);

// Footnote 4: compression ratio of the cell bitsets on the default
// experimental setting — plus what the same cell contents would cost
// under the alternative Roaring codec (footnote 3: BIGrid is orthogonal
// to the compressed-bitset choice).
void PrintCompressionReport() {
  std::printf("\n==== Footnote 4: BIGrid cell-bitset compression (r = 4) "
              "====\n");
  std::printf("%-10s %10s %14s %16s %12s %10s\n", "dataset", "cells",
              "ewah[B]", "uncompressed[B]", "roaring[B]", "savings");
  for (mio::datagen::Preset preset : mio::datagen::AllPresets()) {
    mio::ObjectSet set =
        mio::datagen::MakePreset(preset, mio::datagen::Scale::kQuick);
    mio::BiGrid grid(set, 4.0);
    grid.Build();
    mio::BitsetCompressionStats stats = grid.CompressionStats();
    // Re-encode every large-cell bitset under Roaring for comparison.
    std::size_t roaring_bytes = 0;
    const mio::EwahPool& cells = grid.large().bits;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      roaring_bytes +=
          mio::Roaring::FromPlain(cells[c].ToPlain()).CompressedBytes();
    }
    std::printf("%-10s %10zu %14zu %16zu %12zu %9.1f%%\n",
                mio::datagen::PresetName(preset).c_str(), stats.num_bitsets,
                stats.compressed_bytes, stats.uncompressed_bytes,
                roaring_bytes, stats.SavingsRatio() * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  PrintCompressionReport();
  return 0;
}
