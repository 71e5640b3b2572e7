// BIGrid (paper §III-A): the hybrid of compressed Bitsets, Inverted lists
// and spatial Grids. Two uniform grids are built online per query:
//
//   small grid  — cell width r/sqrt(3) (r/sqrt(2) for planar data); each
//     cell holds one compressed bitset b(c) of the objects with a point in
//     the cell. Two points in one cell are certainly within r (the cell
//     diagonal is exactly r), so the small grid drives lower-bounding.
//   large grid  — cell width ceil(r); each cell holds its bitset b(c), a
//     lazily computed neighbourhood union b_adj(c) = OR of b over the cell
//     and its 26 neighbours, and an inverted list of postings (the points
//     of each object inside the cell). Points within r of a point in the
//     cell must lie in the 27-cell neighbourhood, so the large grid drives
//     upper-bounding and verification.
//
// Layout: both grids are flat arrays built by sorting the mapped points on
// their cell key (a stable radix sort, so equal keys keep the ascending
// object/point order Algorithm 3 maps them in). Cells are the distinct
// keys in lexicographic order and are addressed by index from then on:
// key lists hold small-cell indices, every point records its large-cell
// index, and each large cell carries its occupied neighbours as indices,
// found by nine merge-join passes over the sorted keys. No phase after
// grid mapping probes a hash table. Cells exist only where points fall (no
// empty cells) and every point maps to exactly one cell per grid (no
// replication); mapping is O(nm) plus the linear-time radix sort.
//
// Cell bitsets live in one EWAH word pool per grid (EwahPool): each cell's
// words are encoded straight from its run of the sorted entries, so a
// build allocates per array, never per cell. The small grid keeps words
// only for cells shared by two or more objects — the only ones a key list
// names — and tallies the single-object cells for CompressionStats.
//
// Because the large grid depends only on ceil(r) (the observation behind
// the paper's label mechanism, §III-D), it is held in a shareable
// LargeGridData block: the engine can cache it — including the memoised
// b_adj bitsets and the P_{i,K} groups — and reuse it verbatim for every
// later query with the same ceiling, skipping half of grid mapping and
// all first-touch neighbourhood unions. This grid reuse is an engineering
// extension of the paper's "leveraging previous results" idea. Apart from
// those two lazily memoised parts (each behind a stripe lock), a built
// LargeGridData is immutable, so sharing it across concurrent queries and
// batches needs no further care.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitset/bitset_stats.hpp"
#include "bitset/ewah.hpp"
#include "common/memory_tracker.hpp"
#include "core/labels.hpp"
#include "geo/cell_key.hpp"
#include "object/object_set.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// Index value meaning "no cell" (an unmapped point, an absent key).
inline constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

/// Large cells with at least this many posting points are laid out by
/// octant (see LargeGridData); smaller ones keep one run per object, since
/// the octant directory would cost more than the scan it prunes.
inline constexpr std::size_t kOctantMinPoints = 32;

/// Structure-of-arrays view over one posting run: three parallel
/// coordinate spans, consumable directly by the batch kernels
/// (geo/kernels.hpp) with zero pointer chasing.
struct PostingView {
  const double* xs = nullptr;
  const double* ys = nullptr;
  const double* zs = nullptr;
  std::size_t size = 0;

  bool empty() const { return size == 0; }
  Point operator[](std::size_t i) const { return Point{xs[i], ys[i], zs[i]}; }
};

/// Squared distance from p to octant o's point bounding box in `boxes`
/// (48 doubles: minx,miny,minz,maxx,maxy,maxz per octant; 0 when p is
/// inside). Exact prune for the octant scan: every point of the octant lies
/// inside its box by construction, so MinDist2 > r^2 implies no point of
/// the octant is within r of p.
inline double MinDist2ToOctantBox(const Point& p, const double* boxes,
                                  int octant) {
  const double* box = boxes + octant * 6;
  double d2 = 0.0;
  double d = box[0] - p.x;
  if (d < 0.0) d = p.x - box[3];
  if (d > 0.0) d2 += d * d;
  d = box[1] - p.y;
  if (d < 0.0) d = p.y - box[4];
  if (d > 0.0) d2 += d * d;
  d = box[2] - p.z;
  if (d < 0.0) d = p.z - box[5];
  if (d > 0.0) d2 += d * d;
  return d2;
}

/// Lazily memoised neighbourhood union b_adj(c) of one large cell. A
/// default-constructed entry holds no heap memory, so the memo table costs
/// one allocation per grid. A cell with no occupied neighbour has
/// b_adj(c) = b(c) and views the grid's pool; any other cell's union is
/// encoded once into `owned`.
struct CellAdj {
  EwahView bits;            ///< b_adj(c); valid once Ready()
  std::unique_ptr<std::uint64_t[]> owned;  ///< words of `bits`, if not b(c)
  std::uint32_t count = 0;  ///< |b_adj(c)|, memoised for Labeling-1
  std::uint8_t ready = 0;

  /// Acquire-load of the ready flag. Cells of a cached large grid are
  /// shared across concurrently running queries and b_adj is memoised
  /// lazily: BiGrid::EnsureAdj release-stores the flag only after bits and
  /// count are fully written, so a reader that observes true may use them
  /// without further synchronisation. Every cross-query read of the flag
  /// must go through this (a plain read races the store).
  bool Ready() const {
    return std::atomic_ref<const std::uint8_t>(ready).load(
               std::memory_order_acquire) != 0;
  }
};

/// Per-object grouping of points by large cell (paper §IV: P_{i,K}), the
/// unit of the cost-based parallel partitioning.
struct PointGroup {
  std::uint32_t cell = kNoCell;  ///< large-cell index
  std::vector<std::uint32_t> point_idx;
};

/// The shareable half of a BIGrid: everything that depends only on
/// ceil(r). Cells are in ascending key order; cell c owns posting runs
/// [cell_runs[c], cell_runs[c+1]) and run q owns posting points
/// [run_start[q], run_start[q+1]) of xs/ys/zs.
///
/// Within a cell, runs are ordered by ascending object id, one run per
/// object, and each run's points keep the objects' point order. A cell
/// with at least kOctantMinPoints points is instead laid out by octant
/// (2x2x2 sub-cell): `cell_octants[c]` names its block in `oct_runs` (9
/// absolute run offsets, octant o = [oct_runs[9b+o], oct_runs[9b+o+1]))
/// and `oct_box` (48 doubles: the tight point box of each octant), runs
/// ascending by object id within each octant, so an object may own up to
/// eight runs. Scans skip whole octants whose box lies farther than r.
///
/// `bits` pools every b(c), cell by cell, in one EWAH word array.
///
/// `complete` marks grids built from every point (no label pruning); only
/// complete grids may be cached, since a labelled build omits points.
struct LargeGridData {
  double width = 0.0;

  std::vector<CellKey> keys;          ///< cell keys, ascending
  EwahPool bits;                      ///< b(c), one slot per cell
  std::vector<std::uint32_t> cell_runs;  ///< C+1 offsets into run_*
  std::vector<ObjectId> run_obj;         ///< object of each run
  std::vector<std::uint32_t> run_start;  ///< R+1 offsets into xs/ys/zs
  std::vector<double> xs, ys, zs;        ///< posting coordinates (SoA)

  std::vector<std::uint32_t> cell_octants;  ///< octant block or kNoCell
  std::vector<std::uint32_t> oct_runs;      ///< 9 run offsets per block
  std::vector<double> oct_box;              ///< 48 doubles per block

  /// Occupied neighbours of cell c (excluding c), ascending — which is
  /// ForEachNeighbor's order: nbr[nbr_begin[c] .. nbr_begin[c+1]).
  std::vector<std::uint32_t> nbr_begin;
  std::vector<std::uint32_t> nbr;

  /// Large cell of every point, indexed like the ObjectSet's flat store
  /// (point j of object i is entry Offset(i) + j); kNoCell for points a
  /// labelled build skipped.
  std::vector<std::uint32_t> point_cell;

  std::vector<CellAdj> adj;  ///< lazily memoised b_adj, one per cell
  std::vector<std::vector<PointGroup>> groups;
  bool has_groups = false;
  bool complete = false;

  /// Heap bytes of memoised `adj` words and of the groups (grown as they
  /// are memoised), so MemoryUsage never walks the cells.
  std::atomic<std::size_t> adj_heap_bytes{0};
  std::size_t groups_bytes = 0;

  std::size_t NumCells() const { return keys.size(); }
  std::size_t NumPostingPoints() const { return xs.size(); }
  std::size_t NumOctantCells() const { return oct_runs.size() / 9; }

  PostingView PostingAt(std::size_t run) const {
    const std::uint32_t b = run_start[run];
    return PostingView{xs.data() + b, ys.data() + b, zs.data() + b,
                       run_start[run + 1] - b};
  }
  std::span<const std::uint32_t> Neighbors(std::uint32_t c) const {
    return {nbr.data() + nbr_begin[c], nbr.data() + nbr_begin[c + 1]};
  }
  /// Index of the cell with key k (binary search), or kNoCell.
  std::uint32_t FindCell(const CellKey& k) const;

  /// Bytes held by the posting arrays — the payload a batch class shares
  /// instead of rebuilding per member.
  std::size_t PostingBytes() const;

  /// Acquire-load of has_groups. Like CellAdj::Ready: a cached grid is
  /// shared across concurrent queries and the P_{i,K} groups are built
  /// lazily by the first query that needs them (under the grid's stripe
  /// lock); the flag is release-stored after the groups are complete, so
  /// observing true licenses lock-free reads of `groups`.
  bool GroupsReady() const {
    return std::atomic_ref<const bool>(has_groups)
        .load(std::memory_order_acquire);
  }
  void MarkGroupsReady() {
    std::atomic_ref<bool>(has_groups).store(true, std::memory_order_release);
  }
};

/// The per-query small grid: one pool slot per cell in ascending key
/// order, holding b(c) for cells shared by two or more objects and no
/// words for single-object cells (no key list names them, so lower
/// bounding never reads them; `singles` tallies their would-be encoding
/// for CompressionStats). The key lists are CSR over objects (o_i.L is
/// key_list_cells[key_list_begin[i] .. key_list_begin[i+1])).
struct SmallGridData {
  EwahPool bits;
  BitsetCompressionStats singles;  ///< the single-object cells' bitsets
  std::vector<std::uint32_t> key_list_begin;
  std::vector<std::uint32_t> key_list_cells;
};

/// The BIGrid index for one query threshold r over one object collection.
class BiGrid {
 public:
  /// Prepares an empty index; call Build next.
  /// `objects` must outlive the BiGrid. `planar` selects the 2-D small
  /// grid (width r/sqrt(2)) for constant-z data — sound only when every
  /// point shares one z value (the engine auto-detects this). `reuse`
  /// (optional) adopts a cached large grid for the same ceiling; Build
  /// then maps only the small grid.
  BiGrid(const ObjectSet& objects, double r, bool planar = false,
         std::shared_ptr<LargeGridData> reuse = nullptr);

  /// GRID-MAPPING(O, r) (paper Algorithm 3; with threads > 1, §IV's
  /// PARALLEL-GRID-MAPPING): cell keys are computed and radix-sorted by
  /// `threads` workers (resolved like the engine's option, so 0 means every
  /// core); every thread count produces the same layout. When `labels` is
  /// non-empty, points with a cleared kMap bit are skipped entirely
  /// (GRID-MAPPING-WITH-LABEL, Lemma 3). `build_groups` additionally
  /// materialises the P_{i,K} groups needed by the parallel phases.
  /// `guard` (optional) is polled on an amortised stride and checked
  /// against the "alloc.bigrid" fault site; a tripped guard abandons the
  /// build early (the grid is then incomplete and must be discarded).
  void Build(int threads = 1, const LabelSet* labels = nullptr,
             bool build_groups = false, QueryGuard* guard = nullptr);

  const ObjectSet& objects() const { return *objects_; }
  double r() const { return r_; }
  double small_width() const { return small_width_; }
  double large_width() const { return large_->width; }

  // --- Small grid -------------------------------------------------------
  /// Small cells are indexed in ascending key order; the keys themselves
  /// are dropped once the key lists hold cell indices.
  std::size_t NumSmallCells() const { return small_.bits.size(); }
  /// b(c) of a shared small cell (one a key list names); empty for a
  /// single-object cell, whose bitset is not stored.
  EwahView SmallBits(std::uint32_t c) const { return small_.bits[c]; }
  const SmallGridData& small() const { return small_; }

  /// o_i.L — small cells shared with at least one other object (exactly
  /// the cells that contribute to the lower bound), as cell indices.
  std::span<const std::uint32_t> KeyList(ObjectId i) const {
    return {small_.key_list_cells.data() + small_.key_list_begin[i],
            small_.key_list_cells.data() + small_.key_list_begin[i + 1]};
  }

  // --- Large grid -------------------------------------------------------
  const LargeGridData& large() const { return *large_; }
  std::size_t NumLargeCells() const { return large_->NumCells(); }
  /// Large cell of point j of object i (kNoCell if the build skipped it).
  std::uint32_t LargeCellOf(ObjectId i, std::size_t j) const {
    return large_->point_cell[objects_->Offset(i) + j];
  }

  /// Computes (memoises) b_adj of large cell c. Thread-safe, including
  /// against other BiGrids sharing this cell via a cached LargeGridData:
  /// the memoised path is one acquire load, and builders serialise on a
  /// per-cell stripe lock (double-checked), so a cell's union is computed
  /// exactly once across all concurrent readers.
  const CellAdj& EnsureAdj(std::uint32_t c);

  /// P_{i,K} groups; only populated when built with build_groups.
  const std::vector<PointGroup>& LargeGroups(ObjectId i) const {
    return large_->groups[i];
  }
  bool has_groups() const { return large_->GroupsReady(); }

  /// Shares the ceil(r)-dependent half for reuse by later queries with
  /// the same ceiling (includes memoised b_adj and groups).
  std::shared_ptr<LargeGridData> ShareLargeGrid() const { return large_; }
  /// True when the large grid covers every point (cacheable).
  bool large_grid_complete() const { return large_->complete; }
  /// True when this index adopted a cached large grid.
  bool reused_large_grid() const { return reused_large_; }

  /// Structure footprint (the paper's memory-usage figures): array
  /// capacities plus the heap bytes of bitsets, without walking cells.
  MemoryBreakdown MemoryUsage() const;

  /// Compression accounting over every cell bitset (paper footnote 4).
  BitsetCompressionStats CompressionStats() const;

 private:
  /// Builds the P_{i,K} groups once per LargeGridData. On a reused
  /// (shared) grid the build happens under the grid's stripe lock with a
  /// double check, so concurrent queries adopting the same cached grid
  /// race safely: one builds, the rest adopt.
  void BuildGroups(const LabelSet* labels, int threads);

  const ObjectSet* objects_;
  double r_;
  double small_width_;

  SmallGridData small_;
  std::shared_ptr<LargeGridData> large_;
  bool reused_large_ = false;
};

}  // namespace mio
