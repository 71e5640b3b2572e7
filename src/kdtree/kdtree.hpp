// Static 3-D kd-tree over a point array. Substrate for two of the paper's
// comparison algorithms: the NL kd-tree variant (footnote 9) and the
// theoretical algorithm's closest-pair pre-processing (§II-B, which cites
// Vaidya's O(n log n) all-nearest-neighbours bound).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geo/aabb.hpp"
#include "geo/point.hpp"

namespace mio {

/// Immutable kd-tree built once over a point set. Nodes carry exact
/// bounding boxes, giving tight pruning on the skewed, elongated objects
/// (neurites, trajectories) this system targets. Leaf points are stored
/// structure-of-arrays, so the early-exit leaf scan of ContainsWithin is
/// one batch distance-kernel call (geo/kernels.hpp) per leaf.
class KdTree {
 public:
  /// Builds over a copy of `points`. Empty input yields an empty tree.
  explicit KdTree(std::span<const Point> points);

  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  /// True iff some point lies within distance r of q (early-exit search).
  bool ContainsWithin(const Point& q, double r) const;

  /// Distance from q to its nearest point, pruned by `upper_bound`:
  /// returns a value > upper_bound (not necessarily the true minimum) when
  /// every point is farther than upper_bound.
  double NearestDistance(
      const Point& q,
      double upper_bound = std::numeric_limits<double>::infinity()) const;

  /// Appends the original indices of all points within r of q.
  void CollectWithin(const Point& q, double r,
                     std::vector<std::uint32_t>* out) const;

  /// Root bounding box (invalid box when empty).
  const Aabb& Bounds() const;

  std::size_t MemoryUsageBytes() const;

 private:
  struct Node {
    Aabb box;
    std::uint32_t begin = 0;  // leaf: range into points_
    std::uint32_t end = 0;
    std::int32_t left = -1;   // internal: children indices
    std::int32_t right = -1;
    bool IsLeaf() const { return left < 0; }
  };

  static constexpr std::size_t kLeafSize = 16;

  std::int32_t BuildNode(std::vector<Point>* pts, std::uint32_t begin,
                         std::uint32_t end);

  bool ContainsWithinRec(std::int32_t node, const Point& q, double r2) const;
  void NearestRec(std::int32_t node, const Point& q, double* best2) const;
  void CollectRec(std::int32_t node, const Point& q, double r2,
                  std::vector<std::uint32_t>* out) const;

  Point PointAt(std::size_t i) const { return Point{xs_[i], ys_[i], zs_[i]}; }

  // Reordered (build-order) coordinates, structure-of-arrays.
  std::vector<double> xs_, ys_, zs_;
  std::vector<std::uint32_t> ids_;  // point i was input[ids_[i]]
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace mio
