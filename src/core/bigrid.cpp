#include "core/bigrid.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "bitset/union_accumulator.hpp"
#include "common/fault_injection.hpp"
#include "common/guardrails.hpp"
#include "common/omp_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mio {

namespace {

// Striped locks guarding the lazy mutations of shared LargeGridData —
// b_adj memoisation (per cell) and group building (per grid). Keyed by
// address so the shared structs stay plain data; 64 stripes keep
// cross-cell contention negligible while bounding lock storage. Stripe
// collisions between unrelated cells only serialise two builders, never
// deadlock (no path holds two stripes at once).
std::mutex& StripeFor(const void* p) {
  static std::array<std::mutex, 64> stripes;
  auto h = reinterpret_cast<std::uintptr_t>(p);
  h ^= h >> 9;  // drop allocation-alignment zeros before folding
  return stripes[h % stripes.size()];
}

template <typename T>
std::size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// A mapped point awaiting its small cell.
struct SmallEntry {
  CellKey key;
  ObjectId obj;
};

/// A mapped point awaiting its large cell (pt = its index in the store).
struct LargeEntry {
  CellKey key;
  ObjectId obj;
  std::uint32_t pt;
};

/// Order-preserving unsigned image of a lattice coordinate.
inline std::uint32_t Biased(std::int32_t v) {
  return static_cast<std::uint32_t>(v) ^ 0x80000000u;
}

constexpr std::int32_t CellKey::*kCoords[3] = {&CellKey::x, &CellKey::y,
                                               &CellKey::z};

/// Stable LSD radix sort of `entries` by cell key, in CellKey::operator<
/// order (x, then y, then z). Stability keeps equal keys in input order —
/// the ascending (object, point) order the grids are built in. Digits are
/// taken of each coordinate's offset from its minimum (an order-preserving
/// map onto [0, max - min]), so a coordinate costs one byte pass per byte
/// of its extent, whatever its sign: under 256 cells one pass, under 65536
/// two, a constant coordinate none. Each pass splits the input into one
/// chunk per thread: per-chunk digit counts, one exclusive scan, then a
/// stable scatter.
template <typename Entry>
void SortByCellKey(std::vector<Entry>* entries, int threads) {
  const std::size_t n = entries->size();
  if (n < 2) return;
  std::uint32_t lo[3] = {~0u, ~0u, ~0u};
  std::uint32_t hi[3] = {0, 0, 0};
  for (const Entry& e : *entries) {
    for (int d = 0; d < 3; ++d) {
      const std::uint32_t u = Biased(e.key.*kCoords[d]);
      lo[d] = std::min(lo[d], u);
      hi[d] = std::max(hi[d], u);
    }
  }
  threads = static_cast<int>(std::clamp<std::size_t>(
      n / 32768, 1, static_cast<std::size_t>(std::max(threads, 1))));

  std::vector<Entry> buf(n);
  Entry* src = entries->data();
  Entry* dst = buf.data();
  std::vector<std::array<std::size_t, 256>> counts(
      static_cast<std::size_t>(threads));
  for (int d = 2; d >= 0; --d) {
    for (int shift = 0; shift < 32 && ((hi[d] - lo[d]) >> shift) != 0;
         shift += 8) {
#pragma omp parallel num_threads(threads) if (threads > 1)
      {
        // Loop-invariant copies: stores through `out` may not alias them.
        const std::int32_t CellKey::*coord = kCoords[d];
        const std::uint32_t base = lo[d];
        const unsigned sh = static_cast<unsigned>(shift);
        const Entry* in = src;
        Entry* out = dst;
        const std::size_t team = static_cast<std::size_t>(TeamSize());
        const std::size_t t = static_cast<std::size_t>(ThreadId());
        const std::size_t begin = n * t / team;
        const std::size_t end = n * (t + 1) / team;
        std::array<std::size_t, 256> count{};
        for (std::size_t i = begin; i < end; ++i) {
          ++count[((Biased(in[i].key.*coord) - base) >> sh) & 0xFFu];
        }
        counts[t] = count;
#pragma omp barrier
#pragma omp single
        {
          std::size_t sum = 0;
          for (std::size_t v = 0; v < 256; ++v) {
            for (std::size_t w = 0; w < team; ++w) {
              const std::size_t c = counts[w][v];
              counts[w][v] = sum;
              sum += c;
            }
          }
        }
        count = counts[t];
        for (std::size_t i = begin; i < end; ++i) {
          out[count[((Biased(in[i].key.*coord) - base) >> sh) & 0xFFu]++] =
              in[i];
        }
      }
      std::swap(src, dst);
    }
  }
  if (src != entries->data()) entries->swap(buf);
}

/// End of the run of entries sharing entries[s]'s key.
template <typename Entry>
std::size_t KeyRunEnd(const std::vector<Entry>& entries, std::size_t s) {
  std::size_t e = s + 1;
  while (e < entries.size() && entries[e].key == entries[s].key) ++e;
  return e;
}

/// Octant (bit 0/1/2 = upper half along x/y/z) of p in the cell with key
/// k. The assignment only has to be consistent: the prune uses the tight
/// point boxes, not the geometric octant boundaries, so floating-point
/// edge cases at the half-width plane cannot produce a wrong skip.
inline int OctantOf(const Point& p, const CellKey& k, double width) {
  const double half = 0.5 * width;
  int o = 0;
  if (p.x - static_cast<double>(k.x) * width >= half) o |= 1;
  if (p.y - static_cast<double>(k.y) * width >= half) o |= 2;
  if (p.z - static_cast<double>(k.z) * width >= half) o |= 4;
  return o;
}

/// key < (x, y, z), lexicographically; 64-bit so that neighbour offsets at
/// the int32 extremes cannot overflow.
inline bool KeyBelow(const CellKey& key, std::int64_t x, std::int64_t y,
                     std::int64_t z) {
  if (key.x != x) return key.x < x;
  if (key.y != y) return key.y < y;
  return key.z < z;
}

/// Occupied-neighbour table of sorted `keys`, as nine merge joins of the
/// keys against themselves, one per (dx, dy) column of the 3x3x3
/// neighbourhood: shifting every key by a constant preserves
/// lexicographic order, so each column's cursor only moves forward, and
/// the cells of one column (dz = -1..1) are adjacent in key order. Each
/// cell's neighbours come out ascending, which is ForEachNeighbor's
/// (dx, dy, dz) order.
void JoinNeighbours(const std::vector<CellKey>& keys,
                    std::vector<std::uint32_t>* begin,
                    std::vector<std::uint32_t>* nbr) {
  const std::size_t n = keys.size();
  begin->resize(n + 1);
  nbr->clear();
  std::size_t cursor[9] = {};
  for (std::size_t c = 0; c < n; ++c) {
    (*begin)[c] = static_cast<std::uint32_t>(nbr->size());
    const CellKey& k = keys[c];
    for (int col = 0; col < 9; ++col) {
      const std::int64_t x = std::int64_t{k.x} + col / 3 - 1;
      const std::int64_t y = std::int64_t{k.y} + col % 3 - 1;
      const std::int64_t z_hi = std::int64_t{k.z} + 1;
      std::size_t& t = cursor[col];
      while (t < n && KeyBelow(keys[t], x, y, std::int64_t{k.z} - 1)) ++t;
      for (std::size_t u = t;
           u < n && keys[u].x == x && keys[u].y == y && keys[u].z <= z_hi;
           ++u) {
        if (u != c) nbr->push_back(static_cast<std::uint32_t>(u));
      }
    }
  }
  (*begin)[n] = static_cast<std::uint32_t>(nbr->size());
  nbr->shrink_to_fit();
}

/// Small cells and key lists from entries sorted by key. A key enters
/// o_i.L iff its cell holds at least two distinct objects and o_i is one
/// of them — exactly the membership Algorithm 3 maintains incrementally
/// (single-object cells contribute nothing to any lower bound, so their
/// bitsets are only tallied). Lists are filled in cell order, so each is
/// ascending.
void FillSmallGrid(const std::vector<SmallEntry>& sorted, std::size_t n,
                   SmallGridData* out) {
  out->bits = EwahPool();
  out->singles = BitsetCompressionStats();
  out->key_list_begin.assign(n + 1, 0);
  struct Shared {
    std::size_t begin, end;  // entry range
    std::uint32_t cell;
  };
  std::vector<Shared> shared;  // cells holding >= 2 objects
  for (std::size_t s = 0, e = 0; s < sorted.size(); s = e) {
    e = KeyRunEnd(sorted, s);
    const auto c = static_cast<std::uint32_t>(out->bits.size());
    // Objects ascend within a key run, so the cell is shared iff its
    // first and last entries differ.
    if (sorted[s].obj == sorted[e - 1].obj) {
      out->singles.AddSingleton(sorted[s].obj);
      out->bits.AppendEmpty();
      continue;
    }
    out->bits.Append([&](EwahIdEncoder& enc) {
      for (std::size_t k = s; k < e; ++k) enc.Add(sorted[k].obj);
    });
    shared.push_back({s, e, c});
    for (std::size_t k = s; k < e; ++k) {
      if (k > s && sorted[k].obj == sorted[k - 1].obj) continue;
      ++out->key_list_begin[sorted[k].obj + 1];
    }
  }
  out->bits.ShrinkToFit();
  for (std::size_t i = 0; i < n; ++i) {
    out->key_list_begin[i + 1] += out->key_list_begin[i];
  }
  out->key_list_cells.resize(out->key_list_begin[n]);
  std::vector<std::uint32_t> fill(out->key_list_begin.begin(),
                                  out->key_list_begin.end() - 1);
  for (const Shared& sh : shared) {
    for (std::size_t k = sh.begin; k < sh.end; ++k) {
      if (k > sh.begin && sorted[k].obj == sorted[k - 1].obj) continue;
      out->key_list_cells[fill[sorted[k].obj]++] = sh.cell;
    }
  }
}

/// The large grid from entries sorted by key: cell bitsets, the CSR
/// posting store, every point's cell index, and the neighbour table. A
/// cell with at least kOctantMinPoints points first has its entries stably
/// counting-sorted by octant, so its runs stay ascending by object id
/// within every octant, and gets its run directory and tight octant boxes.
///
/// Two passes: the first encodes the cell bitsets, computes each point's
/// octant once, reorders the octant cells and counts cells, runs and
/// octant cells; the second fills arrays sized from those counts.
void FillLargeGrid(std::vector<LargeEntry>* entries,
                   std::span<const Point> points, LargeGridData* g) {
  std::vector<LargeEntry>& sorted = *entries;
  const std::size_t n = sorted.size();
  const double w = g->width;

  std::vector<std::uint8_t> oct(n, 0);  // octant of each entry
  std::size_t num_cells = 0, num_runs = 0, num_blocks = 0;
  {
    std::vector<LargeEntry> reorder;
    for (std::size_t s = 0, e = 0; s < n; s = e) {
      e = KeyRunEnd(sorted, s);
      ++num_cells;
      // Encoded before the octant reorder, while object ids ascend.
      g->bits.Append([&](EwahIdEncoder& enc) {
        for (std::size_t k = s; k < e; ++k) enc.Add(sorted[k].obj);
      });
      if (e - s >= kOctantMinPoints) {
        ++num_blocks;
        const CellKey key = sorted[s].key;
        std::array<std::size_t, 9> start{};
        for (std::size_t k = s; k < e; ++k) {
          oct[k] = static_cast<std::uint8_t>(
              OctantOf(points[sorted[k].pt], key, w));
          ++start[oct[k] + 1];
        }
        for (int o = 0; o < 8; ++o) start[o + 1] += start[o];
        reorder.resize(e - s);
        for (std::size_t k = s; k < e; ++k) {
          reorder[start[oct[k]]++] = sorted[k];
        }
        std::copy(reorder.begin(), reorder.end(), sorted.begin() + s);
        // The octants are now ascending, each filling its counted span.
        for (std::size_t o = 0, k = s; o < 8; ++o) {
          for (; k < s + start[o]; ++k) oct[k] = static_cast<std::uint8_t>(o);
        }
      }
      for (std::size_t k = s; k < e; ++k) {
        if (k == s || sorted[k].obj != sorted[k - 1].obj ||
            oct[k] != oct[k - 1]) {
          ++num_runs;
        }
      }
    }
  }

  g->keys.resize(num_cells);
  g->cell_runs.resize(num_cells + 1);
  g->run_obj.resize(num_runs);
  g->run_start.resize(num_runs + 1);
  g->xs.resize(n);
  g->ys.resize(n);
  g->zs.resize(n);
  g->cell_octants.resize(num_cells);
  g->oct_runs.resize(num_blocks * 9);
  g->oct_box.resize(num_blocks * 48);
  g->point_cell.assign(points.size(), kNoCell);
  std::size_t c = 0, q = 0, block = 0;
  for (std::size_t s = 0, e = 0; s < n; s = e, ++c) {
    e = KeyRunEnd(sorted, s);
    g->keys[c] = sorted[s].key;
    g->cell_runs[c] = static_cast<std::uint32_t>(q);
    const bool octants = e - s >= kOctantMinPoints;
    g->cell_octants[c] = octants ? static_cast<std::uint32_t>(block) : kNoCell;

    int prev_oct = -1;
    for (std::size_t k = s; k < e; ++k) {
      const LargeEntry& en = sorted[k];
      const Point& p = points[en.pt];
      const int o = oct[k];
      if (k == s || en.obj != sorted[k - 1].obj || o != prev_oct) {
        for (int oo = prev_oct + 1; octants && oo <= o; ++oo) {
          g->oct_runs[block * 9 + static_cast<std::size_t>(oo)] =
              static_cast<std::uint32_t>(q);
        }
        g->run_obj[q] = en.obj;
        g->run_start[q++] = static_cast<std::uint32_t>(k);
      }
      g->xs[k] = p.x;
      g->ys[k] = p.y;
      g->zs[k] = p.z;
      g->point_cell[en.pt] = static_cast<std::uint32_t>(c);
      if (octants) {
        double* box = &g->oct_box[block * 48 + static_cast<std::size_t>(o) * 6];
        if (o != prev_oct) {
          box[0] = box[3] = p.x;
          box[1] = box[4] = p.y;
          box[2] = box[5] = p.z;
        } else {
          box[0] = std::min(box[0], p.x);
          box[1] = std::min(box[1], p.y);
          box[2] = std::min(box[2], p.z);
          box[3] = std::max(box[3], p.x);
          box[4] = std::max(box[4], p.y);
          box[5] = std::max(box[5], p.z);
        }
      }
      prev_oct = o;
    }
    if (octants) {
      for (int oo = prev_oct + 1; oo <= 8; ++oo) {
        g->oct_runs[block * 9 + static_cast<std::size_t>(oo)] =
            static_cast<std::uint32_t>(q);
      }
      ++block;
    }
  }
  g->cell_runs[num_cells] = static_cast<std::uint32_t>(q);
  g->run_start[num_runs] = static_cast<std::uint32_t>(n);
  g->bits.ShrinkToFit();  // word counts are known only once encoded

  JoinNeighbours(g->keys, &g->nbr_begin, &g->nbr);
  g->adj = std::vector<CellAdj>(g->keys.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// LargeGridData
// ---------------------------------------------------------------------------

std::uint32_t LargeGridData::FindCell(const CellKey& k) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), k);
  if (it == keys.end() || !(*it == k)) return kNoCell;
  return static_cast<std::uint32_t>(it - keys.begin());
}

std::size_t LargeGridData::PostingBytes() const {
  return run_obj.size() * sizeof(ObjectId) +
         run_start.size() * sizeof(std::uint32_t) +
         NumPostingPoints() * 3 * sizeof(double);
}

// ---------------------------------------------------------------------------
// BiGrid build
// ---------------------------------------------------------------------------

BiGrid::BiGrid(const ObjectSet& objects, double r, bool planar,
               std::shared_ptr<LargeGridData> reuse)
    : objects_(&objects),
      r_(r),
      small_width_(planar ? SmallGridWidth2D(r) : SmallGridWidth(r)) {
  double width = LargeGridWidth(r);
  if (reuse != nullptr && reuse->width == width && reuse->complete) {
    large_ = std::move(reuse);
    reused_large_ = true;
  } else {
    large_ = std::make_shared<LargeGridData>();
    large_->width = width;
  }
}

void BiGrid::Build(int threads, const LabelSet* labels, bool build_groups,
                   QueryGuard* guard) {
  MIO_TRACE_SPAN_CAT("grid.build", "grid");
  threads = ResolveThreads(threads);
  const ObjectSet& objs = *objects_;
  const std::size_t n = objs.size();
  const bool build_large = !reused_large_;
  if (build_large) {
    // Start from an empty block, so a rebuild never appends to old cells.
    auto fresh = std::make_shared<LargeGridData>();
    fresh->width = large_->width;
    fresh->complete = labels == nullptr;
    large_ = std::move(fresh);
  }
  LargeGridData& g = *large_;
  small_.key_list_begin.assign(n + 1, 0);

  // Offsets of every object's mapped points in the entry arrays. The
  // per-point cell index needs none: it is addressed like the store.
  auto mapped = [&](ObjectId i, std::size_t j) {
    return labels == nullptr || (labels->Get(i, j) & label::kMap) != 0;
  };
  std::vector<std::size_t> entry_base(n + 1, 0);
  for (ObjectId i = 0; i < n; ++i) {
    const std::size_t m = objs.Offset(i + 1) - objs.Offset(i);
    std::size_t kept = m;
    if (labels != nullptr) {
      kept = 0;
      for (std::size_t j = 0; j < m; ++j) kept += mapped(i, j) ? 1 : 0;
    }
    entry_base[i + 1] = entry_base[i] + kept;
  }
  const std::size_t num_entries = entry_base[n];

  // Cell keys of every mapped point, object-parallel. Labeling-1 points
  // (cleared kMap) are skipped entirely (Lemma 3).
  const std::span<const Point> points = objs.points();
  std::vector<SmallEntry> small(num_entries);
  std::vector<LargeEntry> large(build_large ? num_entries : 0);
  {
    MIO_TRACE_SPAN_CAT("grid.map.keys", "grid");
#pragma omp parallel for schedule(static) num_threads(threads) if (threads > 1)
    for (ObjectId i = 0; i < n; ++i) {
      if (guard != nullptr) {
        if ((i % kGuardStrideObjects) == 0) {
          if (ThreadId() == 0 && MIO_FAULT_HIT("alloc.bigrid")) {
            guard->TripResource();
          }
          guard->Poll();
        }
        if (guard->tripped()) continue;  // workers drain at one load each
      }
      const std::size_t base = objs.Offset(i);
      const std::size_t end = objs.Offset(i + 1);
      std::size_t at = entry_base[i];
      for (std::size_t pt = base; pt < end; ++pt) {
        if (!mapped(i, pt - base)) continue;
        const Point& p = points[pt];
        small[at] = SmallEntry{KeyForWidth(p, small_width_), i};
        if (build_large) {
          large[at] = LargeEntry{KeyForWidth(p, g.width), i,
                                 static_cast<std::uint32_t>(pt)};
        }
        ++at;
      }
    }
  }
  if (guard != nullptr && guard->tripped()) {
    // Abandoned mid-map: the grid misses points, so it must never be
    // cached or queried; the engine discards it.
    if (build_large) g.complete = false;
    return;
  }

  {
    MIO_TRACE_SPAN_CAT("grid.map.small", "grid");
    SortByCellKey(&small, threads);
    FillSmallGrid(small, n, &small_);
  }
  if (build_large) {
    MIO_TRACE_SPAN_CAT("grid.map.large", "grid");
    SortByCellKey(&large, threads);
    FillLargeGrid(&large, points, &g);
  }

  if (build_groups) BuildGroups(labels, threads);
}

void BiGrid::BuildGroups(const LabelSet* labels, int threads) {
  if (large_->GroupsReady()) return;
  // A reused (complete) grid needs complete groups; a fresh labelled grid
  // needs label-filtered groups matching its cell population.
  const LabelSet* group_labels = reused_large_ ? nullptr : labels;
  const std::size_t n = objects_->size();
  LargeGridData& g = *large_;
  auto build = [&] {
    g.groups.assign(n, {});
#pragma omp parallel num_threads(threads) if (threads > 1)
    {
      // Group slot of each cell for the object being grouped; reset after
      // every object, so groups keep first-appearance order.
      std::vector<std::uint32_t> slot(g.NumCells(), kNoCell);
#pragma omp for schedule(dynamic, 16)
      for (ObjectId i = 0; i < n; ++i) {
        const Object& o = (*objects_)[i];
        std::vector<PointGroup>& groups = g.groups[i];
        for (std::size_t j = 0; j < o.points.size(); ++j) {
          if (group_labels != nullptr &&
              (group_labels->Get(i, j) & label::kMap) == 0) {
            continue;
          }
          const std::uint32_t cell = g.point_cell[objects_->Offset(i) + j];
          std::uint32_t& s = slot[cell];
          if (s == kNoCell) {
            s = static_cast<std::uint32_t>(groups.size());
            groups.push_back(PointGroup{cell, {}});
          }
          groups[s].point_idx.push_back(static_cast<std::uint32_t>(j));
        }
        for (const PointGroup& grp : groups) slot[grp.cell] = kNoCell;
      }
    }
    std::size_t bytes = VecBytes(g.groups);
    for (const auto& groups : g.groups) {
      bytes += VecBytes(groups);
      for (const PointGroup& grp : groups) bytes += VecBytes(grp.point_idx);
    }
    g.groups_bytes = bytes;
    g.MarkGroupsReady();
  };
  if (!reused_large_) {
    // Freshly built grid: exclusively owned until the engine caches it, so
    // no lock is needed.
    build();
    return;
  }
  // Reused shared grid: concurrent queries adopting the same cached grid
  // may race to populate groups. One builds under the grid's stripe lock;
  // the rest adopt via the acquire load in GroupsReady().
  std::lock_guard<std::mutex> lock(StripeFor(large_.get()));
  if (large_->GroupsReady()) return;
  build();
}

// ---------------------------------------------------------------------------
// Neighbourhood unions
// ---------------------------------------------------------------------------

const CellAdj& BiGrid::EnsureAdj(std::uint32_t c) {
  LargeGridData& g = *large_;
  CellAdj& a = g.adj[c];
  if (a.Ready()) return a;
  // Double-checked locking: a cached grid's cells are shared across
  // concurrently running queries, so two of them may race to memoise the
  // same union. The stripe lock makes exactly one of them build; the
  // release store of the flag publishes bits/count to the losers'
  // acquire loads.
  std::lock_guard<std::mutex> lock(StripeFor(&a));
  if (a.Ready()) return a;
  obs::Add(obs::Counter::kAdjBuilds);
  const EwahView own = g.bits[c];
  if (g.Neighbors(c).empty()) {
    // No occupied neighbour: b_adj(c) = b(c), viewed in place.
    a.bits = own;
    a.count = static_cast<std::uint32_t>(own.Count());
  } else {
    // Union in per-thread scratch, then one exact-size allocation.
    thread_local UnionAccumulator acc;
    thread_local std::vector<std::uint64_t> words;
    acc.Clear();
    words.clear();
    acc.Or(own);
    std::size_t size_in_bits = own.SizeInBits();
    for (std::uint32_t nb : g.Neighbors(c)) {
      const EwahView b = g.bits[nb];
      acc.Or(b);
      size_in_bits = std::max(size_in_bits, b.SizeInBits());
    }
    EwahEncoder enc(&words);
    acc.EncodeTo(&enc);
    a.owned.reset(new std::uint64_t[words.size()]);
    std::copy(words.begin(), words.end(), a.owned.get());
    a.bits = EwahView(a.owned.get(), words.size(), size_in_bits);
    a.count = static_cast<std::uint32_t>(acc.Count());
    g.adj_heap_bytes.fetch_add(words.size() * sizeof(std::uint64_t),
                               std::memory_order_relaxed);
  }
  std::atomic_ref<std::uint8_t>(a.ready).store(1, std::memory_order_release);
  return a;
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

MemoryBreakdown BiGrid::MemoryUsage() const {
  MemoryBreakdown mb;
  mb.Add("small_grid", small_.bits.HeapBytes());

  const LargeGridData& g = *large_;
  mb.Add("large_grid",
         VecBytes(g.keys) + g.bits.HeapBytes() +
             VecBytes(g.cell_runs) + VecBytes(g.run_obj) +
             VecBytes(g.run_start) + VecBytes(g.xs) + VecBytes(g.ys) +
             VecBytes(g.zs) + VecBytes(g.cell_octants) + VecBytes(g.oct_runs) +
             VecBytes(g.oct_box) + VecBytes(g.nbr_begin) + VecBytes(g.nbr) +
             VecBytes(g.point_cell) +
             VecBytes(g.adj) +
             g.adj_heap_bytes.load(std::memory_order_relaxed));

  mb.Add("key_lists", VecBytes(small_.key_list_begin) +
                          VecBytes(small_.key_list_cells));

  if (g.GroupsReady()) mb.Add("point_groups", g.groups_bytes);
  return mb;
}

BitsetCompressionStats BiGrid::CompressionStats() const {
  BitsetCompressionStats stats = small_.singles;
  for (std::size_t c = 0; c < small_.bits.size(); ++c) {
    if (small_.bits[c].NumWords() > 0) stats.Add(small_.bits[c]);
  }
  for (std::size_t c = 0; c < large_->bits.size(); ++c) {
    stats.Add(large_->bits[c]);
  }
  for (const CellAdj& a : large_->adj) {
    if (a.Ready()) stats.Add(a.bits);
  }
  return stats;
}

}  // namespace mio
