#include "object/object_set.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace mio {

std::string DatasetStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu m=%.1f nm=%zu min_points=%zu max_points=%zu", n, m, nm,
                min_points, max_points);
  return buf;
}

ObjectSet::ObjectSet(std::vector<Point> points, std::vector<double> times,
                     std::vector<std::size_t> offsets)
    : points_(std::move(points)),
      times_(std::move(times)),
      offsets_(std::move(offsets)) {
  assert(times_.empty() || times_.size() == points_.size());
  assert(offsets_.empty() ? points_.empty()
                          : offsets_.front() == 0 &&
                                offsets_.back() == points_.size());
}

ObjectId ObjectSet::Add(std::span<const Point> points,
                        std::span<const double> times) {
  if (offsets_.empty()) offsets_.push_back(0);
  const bool timed = !times_.empty() || !times.empty();
  if (timed) times_.resize(points_.size(), 0.0);
  points_.insert(points_.end(), points.begin(), points.end());
  if (timed) {
    times = times.first(std::min(times.size(), points.size()));
    times_.insert(times_.end(), times.begin(), times.end());
    times_.resize(points_.size(), 0.0);
  }
  offsets_.push_back(points_.size());
  return static_cast<ObjectId>(size() - 1);
}

DatasetStats ObjectSet::Stats() const {
  DatasetStats s;
  s.n = size();
  if (s.n == 0) return s;
  s.nm = points_.size();
  s.min_points = s.nm;
  for (std::size_t i = 0; i < s.n; ++i) {
    const std::size_t m = offsets_[i + 1] - offsets_[i];
    s.min_points = std::min(s.min_points, m);
    s.max_points = std::max(s.max_points, m);
  }
  s.m = static_cast<double>(s.nm) / static_cast<double>(s.n);
  return s;
}

Aabb ObjectSet::Bounds() const {
  Aabb box;
  for (const Point& p : points_) box.Extend(p);
  return box;
}

std::size_t ObjectSet::MemoryUsageBytes() const {
  return points_.capacity() * sizeof(Point) +
         times_.capacity() * sizeof(double) +
         offsets_.capacity() * sizeof(std::size_t);
}

bool ObjectSet::IsPlanar() const {
  if (points_.empty()) return false;
  const double z0 = points_[0].z;
  for (const Point& p : points_) {
    if (p.z != z0) return false;
  }
  return true;
}

double ObjectSet::MaxTime() const {
  double mx = 0.0;
  for (double t : times_) mx = std::max(mx, t);
  return mx;
}

}  // namespace mio
