// The object collection O: memory-resident and static (paper §II-A).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "geo/aabb.hpp"
#include "object/object.hpp"

namespace mio {

/// Summary statistics in the paper's notation (Table I).
struct DatasetStats {
  std::size_t n = 0;        ///< number of objects
  double m = 0.0;           ///< average points per object
  std::size_t nm = 0;       ///< total number of points
  std::size_t min_points = 0;
  std::size_t max_points = 0;

  std::string ToString() const;
};

/// An immutable-after-build collection of objects. Object i's id is i.
///
/// One flat store holds every object: all points in one array, object
/// after object (object i owns points [Offset(i), Offset(i + 1))), and the
/// timestamps point-parallel in a second array that is empty for an
/// untimestamped set. `set[i]` is a view into that store.
class ObjectSet {
 public:
  /// Iterates the objects in id order, yielding views.
  class Iterator {
   public:
    using value_type = Object;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const ObjectSet* set, ObjectId id) : set_(set), id_(id) {}
    Object operator*() const { return (*set_)[id_]; }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return id_ == o.id_; }

   private:
    const ObjectSet* set_ = nullptr;
    ObjectId id_ = 0;
  };

  ObjectSet() = default;

  /// Adopts a flat store: `offsets` holds n + 1 ascending point offsets
  /// from 0 to points.size(), and `times` is empty or points.size() long.
  ObjectSet(std::vector<Point> points, std::vector<double> times,
            std::vector<std::size_t> offsets);

  /// Appends an object (a copy of `points`, and of `times` when given) and
  /// returns its id. Timestamps are all-or-none per set: an object added
  /// without times to a timestamped set, or a point of a shorter `times`,
  /// gets time 0, as do the earlier points when the first times arrive.
  /// The spans must not view this set.
  ObjectId Add(std::span<const Point> points,
               std::span<const double> times = {});
  ObjectId Add(std::initializer_list<Point> points,
               std::initializer_list<double> times = {}) {
    return Add(std::span<const Point>(points.begin(), points.size()),
               std::span<const double>(times.begin(), times.size()));
  }
  ObjectId Add(const Object& obj) { return Add(obj.points, obj.times); }

  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  bool empty() const { return size() == 0; }

  Object operator[](ObjectId id) const {
    const std::size_t b = offsets_[id];
    const std::size_t e = offsets_[id + 1];
    return Object{
        std::span<const Point>(points_.data() + b, e - b),
        times_.empty() ? std::span<const double>()
                       : std::span<const double>(times_.data() + b, e - b)};
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const {
    return Iterator(this, static_cast<ObjectId>(size()));
  }

  /// The flat store: every point, object after object, and the
  /// point-parallel times (empty when the set has none).
  std::span<const Point> points() const { return points_; }
  std::span<const double> times() const { return times_; }
  /// Index in points() of object i's first point; Offset(size()) is nm.
  std::size_t Offset(ObjectId i) const { return offsets_[i]; }
  /// nm, the total number of points.
  std::size_t NumPoints() const { return points_.size(); }
  bool HasTimes() const { return !times_.empty(); }

  /// n, m, nm and min/max object sizes.
  DatasetStats Stats() const;

  /// Bounding box over every point of every object.
  Aabb Bounds() const;

  /// Heap bytes held by the flat store (capacities of its three arrays).
  std::size_t MemoryUsageBytes() const;

  /// Maximum timestamp across all objects (0 when untimestamped).
  double MaxTime() const;

  /// True iff every point shares one z coordinate (a 2-D dataset such as
  /// planar trajectories) — enables the tighter 2-D small grid.
  bool IsPlanar() const;

 private:
  std::vector<Point> points_;
  std::vector<double> times_;
  std::vector<std::size_t> offsets_;  ///< n + 1 entries once non-empty
};

}  // namespace mio
