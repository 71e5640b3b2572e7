#include "kdtree/kdtree.hpp"

#include <algorithm>
#include <numeric>

#include "geo/kernels.hpp"

namespace mio {

KdTree::KdTree(std::span<const Point> input) {
  std::vector<Point> points(input.begin(), input.end());
  ids_.resize(points.size());
  std::iota(ids_.begin(), ids_.end(), 0u);
  if (!points.empty()) {
    nodes_.reserve(2 * points.size() / kLeafSize + 2);
    root_ = BuildNode(&points, 0, static_cast<std::uint32_t>(points.size()));
  }
  // Scatter the reordered points into the SoA leaf storage.
  xs_.resize(points.size());
  ys_.resize(points.size());
  zs_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    xs_[i] = points[i].x;
    ys_[i] = points[i].y;
    zs_[i] = points[i].z;
  }
}

std::int32_t KdTree::BuildNode(std::vector<Point>* pts, std::uint32_t begin,
                               std::uint32_t end) {
  std::vector<Point>& points = *pts;
  Node node;
  for (std::uint32_t i = begin; i < end; ++i) node.box.Extend(points[i]);
  std::int32_t idx = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);

  if (end - begin <= kLeafSize) {
    nodes_[idx].begin = begin;
    nodes_[idx].end = end;
    return idx;
  }

  // Split on the widest axis at the median: balanced depth, and the exact
  // child boxes absorb any split-plane slack.
  const Aabb& box = nodes_[idx].box;
  int axis = 0;
  double ext = box.ExtentX();
  if (box.ExtentY() > ext) {
    axis = 1;
    ext = box.ExtentY();
  }
  if (box.ExtentZ() > ext) axis = 2;

  std::uint32_t mid = begin + (end - begin) / 2;
  auto coord = [axis](const Point& p) {
    return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
  };
  // Keep points and ids_ in lock-step: sort an index permutation.
  std::vector<std::uint32_t> perm(end - begin);
  std::iota(perm.begin(), perm.end(), begin);
  std::nth_element(perm.begin(), perm.begin() + (mid - begin), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return coord(points[a]) < coord(points[b]);
                   });
  std::vector<Point> tmp_pts(end - begin);
  std::vector<std::uint32_t> tmp_ids(end - begin);
  for (std::uint32_t i = 0; i < end - begin; ++i) {
    tmp_pts[i] = points[perm[i]];
    tmp_ids[i] = ids_[perm[i]];
  }
  std::copy(tmp_pts.begin(), tmp_pts.end(), points.begin() + begin);
  std::copy(tmp_ids.begin(), tmp_ids.end(), ids_.begin() + begin);

  std::int32_t left = BuildNode(pts, begin, mid);
  std::int32_t right = BuildNode(pts, mid, end);
  nodes_[idx].left = left;
  nodes_[idx].right = right;
  return idx;
}

bool KdTree::ContainsWithin(const Point& q, double r) const {
  if (root_ < 0) return false;
  return ContainsWithinRec(root_, q, r * r);
}

bool KdTree::ContainsWithinRec(std::int32_t node, const Point& q,
                               double r2) const {
  const Node& nd = nodes_[node];
  if (nd.box.SquaredDistanceTo(q) > r2) return false;
  if (nd.IsLeaf()) {
    return AnyWithin(q, xs_.data() + nd.begin, ys_.data() + nd.begin,
                     zs_.data() + nd.begin, nd.end - nd.begin, r2) >= 0;
  }
  // Descend into the closer child first: hits terminate the search.
  double dl = nodes_[nd.left].box.SquaredDistanceTo(q);
  double dr = nodes_[nd.right].box.SquaredDistanceTo(q);
  std::int32_t first = nd.left, second = nd.right;
  if (dr < dl) std::swap(first, second);
  return ContainsWithinRec(first, q, r2) || ContainsWithinRec(second, q, r2);
}

double KdTree::NearestDistance(const Point& q, double upper_bound) const {
  if (root_ < 0) return std::numeric_limits<double>::infinity();
  double best2 = upper_bound * upper_bound;
  bool capped = upper_bound != std::numeric_limits<double>::infinity();
  if (!capped) best2 = std::numeric_limits<double>::infinity();
  NearestRec(root_, q, &best2);
  return std::sqrt(best2);
}

void KdTree::NearestRec(std::int32_t node, const Point& q,
                        double* best2) const {
  const Node& nd = nodes_[node];
  if (nd.box.SquaredDistanceTo(q) > *best2) return;
  if (nd.IsLeaf()) {
    for (std::uint32_t i = nd.begin; i < nd.end; ++i) {
      double d2 = SquaredDistance(PointAt(i), q);
      if (d2 < *best2) *best2 = d2;
    }
    return;
  }
  double dl = nodes_[nd.left].box.SquaredDistanceTo(q);
  double dr = nodes_[nd.right].box.SquaredDistanceTo(q);
  if (dl <= dr) {
    NearestRec(nd.left, q, best2);
    NearestRec(nd.right, q, best2);
  } else {
    NearestRec(nd.right, q, best2);
    NearestRec(nd.left, q, best2);
  }
}

void KdTree::CollectWithin(const Point& q, double r,
                           std::vector<std::uint32_t>* out) const {
  if (root_ < 0) return;
  CollectRec(root_, q, r * r, out);
}

void KdTree::CollectRec(std::int32_t node, const Point& q, double r2,
                        std::vector<std::uint32_t>* out) const {
  const Node& nd = nodes_[node];
  if (nd.box.SquaredDistanceTo(q) > r2) return;
  if (nd.IsLeaf()) {
    for (std::uint32_t i = nd.begin; i < nd.end; ++i) {
      if (SquaredDistance(PointAt(i), q) <= r2) out->push_back(ids_[i]);
    }
    return;
  }
  CollectRec(nd.left, q, r2, out);
  CollectRec(nd.right, q, r2, out);
}

const Aabb& KdTree::Bounds() const {
  static const Aabb kEmpty;
  if (root_ < 0) return kEmpty;
  return nodes_[root_].box;
}

std::size_t KdTree::MemoryUsageBytes() const {
  return (xs_.capacity() + ys_.capacity() + zs_.capacity()) * sizeof(double) +
         ids_.capacity() * sizeof(std::uint32_t) +
         nodes_.capacity() * sizeof(Node);
}

}  // namespace mio
