#include "grid/spatial_hash_grid.hpp"

#include "common/memory_tracker.hpp"

namespace mio {

void SpatialHashGrid::Build(const ObjectSet& objects) {
  cells_.reserve(objects.NumPoints() / 4 + 1);
  for (ObjectId i = 0; i < objects.size(); ++i) {
    for (const Point& p : objects[i].points) Insert(i, p);
  }
}

void SpatialHashGrid::Insert(ObjectId obj, const Point& p) {
  Cell& cell = cells_[KeyForWidth(p, width_)];
  if (cell.run_obj.empty() || cell.run_obj.back() != obj) {
    cell.run_obj.push_back(obj);
    cell.run_start.push_back(static_cast<std::uint32_t>(cell.xs.size()));
  }
  cell.xs.push_back(p.x);
  cell.ys.push_back(p.y);
  cell.zs.push_back(p.z);
  ++num_entries_;
}

const SpatialHashGrid::Cell* SpatialHashGrid::CellAt(
    const CellKey& key) const {
  auto it = cells_.find(key);
  if (it == cells_.end()) return nullptr;
  return &it->second;
}

std::size_t SpatialHashGrid::MemoryUsageBytes() const {
  std::size_t bytes = UnorderedMapBytes(cells_);
  for (const auto& [_, cell] : cells_) {
    bytes += cell.run_obj.capacity() * sizeof(ObjectId) +
             cell.run_start.capacity() * sizeof(std::uint32_t) +
             (cell.xs.capacity() + cell.ys.capacity() + cell.zs.capacity()) *
                 sizeof(double);
  }
  return bytes;
}

}  // namespace mio
