// Batch geometry kernels: the verification hot path evaluates the
// interaction predicate dist(p, q) <= r over contiguous runs of candidate
// points, so the primitives here take structure-of-arrays coordinate
// spans (xs/ys/zs) and process a whole run per call — SSE2 two lanes or
// AVX2 four lanes at a time, with a portable scalar fallback.
//
// The implementation tier is selected once at startup via cpuid
// (AVX2+FMA -> SSE2 -> scalar) and can be overridden with the MIO_KERNEL
// environment variable (scalar | sse2 | avx2; clamped to what the CPU
// supports) or programmatically with SetKernelTier (tests).
//
// Every tier is bit-identical: all tiers evaluate the squared distance as
// (dx*dx + dy*dy) + dz*dz with one IEEE rounding per operation — the
// vector paths use explicit mul/add intrinsics (never FMA contraction),
// so each lane performs exactly the scalar computation and boundary-exact
// comparisons (dist == r) agree across tiers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/cpu_features.hpp"
#include "geo/point.hpp"

namespace mio {

namespace kernel_detail {

/// Spans at or below this length take the inline scalar path instead of
/// the dispatched vector kernels: BIGrid posting lists and grid/kd-tree
/// runs are typically a handful of points, and an out-of-line call plus
/// vector setup (broadcasts, tail handling) costs more than the whole
/// scan at these sizes. The bypass evaluates the identical expression,
/// so results stay bit-equal to every tier.
inline constexpr std::size_t kInlineBatchCutoff = 16;

std::ptrdiff_t AnyWithinDispatch(const Point& q, const double* xs,
                                 const double* ys, const double* zs,
                                 std::size_t n, double r2);
std::size_t CountWithinDispatch(const Point& q, const double* xs,
                                const double* ys, const double* zs,
                                std::size_t n, double r2);

}  // namespace kernel_detail

/// Index of the first point in the span with squared distance to q
/// <= r2, or -1 when none qualifies. All tiers return the lowest index,
/// so early-exit scans behave identically under every dispatch tier.
inline std::ptrdiff_t AnyWithin(const Point& q, const double* xs,
                                const double* ys, const double* zs,
                                std::size_t n, double r2) {
  if (n <= kernel_detail::kInlineBatchCutoff) {
    for (std::size_t i = 0; i < n; ++i) {
      double dx = q.x - xs[i];
      double dy = q.y - ys[i];
      double dz = q.z - zs[i];
      if ((dx * dx + dy * dy) + dz * dz <= r2) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  }
  return kernel_detail::AnyWithinDispatch(q, xs, ys, zs, n, r2);
}

/// Number of points in the span with squared distance to q <= r2.
inline std::size_t CountWithin(const Point& q, const double* xs,
                               const double* ys, const double* zs,
                               std::size_t n, double r2) {
  if (n <= kernel_detail::kInlineBatchCutoff) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double dx = q.x - xs[i];
      double dy = q.y - ys[i];
      double dz = q.z - zs[i];
      if ((dx * dx + dy * dy) + dz * dz <= r2) ++count;
    }
    return count;
  }
  return kernel_detail::CountWithinDispatch(q, xs, ys, zs, n, r2);
}

/// The tier the dispatched kernels currently run at. Resolved on first
/// use: min(BestSupportedTier(), MIO_KERNEL override if set).
KernelTier ActiveKernelTier();

/// Forces the dispatch tier (clamped to BestSupportedTier()); returns the
/// tier actually activated. Not thread-safe against in-flight kernel
/// calls — intended for startup and single-threaded test code.
KernelTier SetKernelTier(KernelTier tier);

/// Structure-of-arrays mirror of a point sequence; the batch form the
/// kernels consume. Baselines build these once per query so their
/// pairwise predicates run through the same kernels as BIGrid.
struct SoaPoints {
  std::vector<double> xs, ys, zs;

  SoaPoints() = default;
  explicit SoaPoints(std::span<const Point> pts) { Assign(pts); }

  void Assign(std::span<const Point> pts) {
    xs.resize(pts.size());
    ys.resize(pts.size());
    zs.resize(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      xs[i] = pts[i].x;
      ys[i] = pts[i].y;
      zs[i] = pts[i].z;
    }
  }

  std::size_t size() const { return xs.size(); }
};

namespace kernel_detail {

// Per-tier entry points, exposed for the differential tests and the
// micro-benchmarks. The SSE2/AVX2 symbols exist on every build but fall
// back to the scalar kernel when the target ISA is not compiled in
// (non-x86); calling a vector kernel on a CPU without the ISA is
// undefined — gate on BestSupportedTier() first.
std::ptrdiff_t AnyWithinScalar(const Point& q, const double* xs,
                               const double* ys, const double* zs,
                               std::size_t n, double r2);
std::size_t CountWithinScalar(const Point& q, const double* xs,
                              const double* ys, const double* zs,
                              std::size_t n, double r2);
std::ptrdiff_t AnyWithinSse2(const Point& q, const double* xs,
                             const double* ys, const double* zs,
                             std::size_t n, double r2);
std::size_t CountWithinSse2(const Point& q, const double* xs,
                            const double* ys, const double* zs, std::size_t n,
                            double r2);
std::ptrdiff_t AnyWithinAvx2(const Point& q, const double* xs,
                             const double* ys, const double* zs,
                             std::size_t n, double r2);
std::size_t CountWithinAvx2(const Point& q, const double* xs,
                            const double* ys, const double* zs, std::size_t n,
                            double r2);

}  // namespace kernel_detail

}  // namespace mio
