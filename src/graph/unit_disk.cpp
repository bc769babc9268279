#include "graph/unit_disk.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dsn {

Graph buildUnitDiskGraph(const std::vector<Point2D>& points, double range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
  Graph g(points.size());
  UnitDiskIndex index(range);
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j : index.queryNeighbors(points[i])) g.addEdge(i, j);
    index.insert(i, points[i]);
  }
  return g;
}

UnitDiskIndex::UnitDiskIndex(double range) : range_(range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
}

UnitDiskIndex::CellKey UnitDiskIndex::packKey(std::int64_t cx,
                                              std::int64_t cy) {
  // Coordinates are offset into positive space before packing two 32-bit
  // cell indices into one key.
  const auto ux = static_cast<std::uint64_t>(cx + (1ll << 31));
  const auto uy = static_cast<std::uint64_t>(cy + (1ll << 31));
  return (ux << 32) | (uy & 0xFFFFFFFFull);
}

UnitDiskIndex::CellKey UnitDiskIndex::cellOf(const Point2D& p) const {
  // Cell size equals the range, so all neighbors of a point lie in the
  // 3x3 block of cells around it.
  return packKey(static_cast<std::int64_t>(std::floor(p.x / range_)),
                 static_cast<std::int64_t>(std::floor(p.y / range_)));
}

std::vector<NodeId> UnitDiskIndex::queryNeighbors(const Point2D& p) const {
  std::vector<NodeId> out;
  out.reserve(16);
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / range_));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / range_));
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      // The neighbor cell key comes straight from the integer cell
      // coordinates — synthesizing a float cell-center and re-flooring it
      // would round-trip through doubles and can land in the wrong cell
      // right at a cell boundary.
      const auto it = cells_.find(packKey(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (NodeId id : it->second) {
        if (inRange(*positions_[id], p, range_)) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void UnitDiskIndex::insert(NodeId id, const Point2D& p) {
  DSN_REQUIRE(!contains(id), "UnitDiskIndex::insert: duplicate id");
  if (id >= positions_.size()) positions_.resize(id + std::size_t{1});
  positions_[id] = p;
  ++size_;
  cells_[cellOf(p)].push_back(id);
}

void UnitDiskIndex::remove(NodeId id) {
  DSN_REQUIRE(contains(id), "UnitDiskIndex::remove: unknown id");
  auto& bucket = cells_[cellOf(*positions_[id])];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  positions_[id].reset();
  --size_;
}

void UnitDiskIndex::updatePosition(NodeId id, const Point2D& p) {
  DSN_REQUIRE(contains(id), "UnitDiskIndex::updatePosition: unknown id");
  Point2D& at = *positions_[id];
  const CellKey oldCell = cellOf(at);
  const CellKey newCell = cellOf(p);
  if (oldCell != newCell) {
    auto& bucket = cells_[oldCell];
    bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
    cells_[newCell].push_back(id);
  }
  at = p;
}

const Point2D& UnitDiskIndex::position(NodeId id) const {
  DSN_REQUIRE(contains(id), "UnitDiskIndex::position: unknown id");
  return *positions_[id];
}

bool UnitDiskIndex::contains(NodeId id) const {
  return id < positions_.size() && positions_[id].has_value();
}

}  // namespace dsn
