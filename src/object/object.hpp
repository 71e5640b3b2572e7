// The paper's data model: an object is a set of spatial points (a neuron's
// sample points, a sub-trajectory's fixes). Object ids are their indices in
// the owning ObjectSet — bit i of every BIGrid bitset refers to object i.
#pragma once

#include <cstdint>
#include <span>

#include "geo/point.hpp"

namespace mio {

/// Object id type; also the bit index inside BIGrid bitsets.
using ObjectId = std::uint32_t;

/// A spatial object: a view of its points, optionally timestamped
/// (temporal variant, paper Appendix B), in the owning ObjectSet's flat
/// store. `times` is either empty or point-parallel. A view stays valid
/// until the set is next appended to or destroyed.
struct Object {
  std::span<const Point> points;
  std::span<const double> times;

  std::size_t NumPoints() const { return points.size(); }
  bool HasTimes() const { return !times.empty(); }
};

}  // namespace mio
