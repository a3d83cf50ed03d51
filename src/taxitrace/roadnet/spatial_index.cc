#include "taxitrace/roadnet/spatial_index.h"

// tt-lint: allow-file(relaxed-atomic): query tallies batched into a
// few relaxed adds per query and exported via stats() for obs metrics;
// sums of deterministic per-query work, never fed into StudyResults.

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace taxitrace {
namespace roadnet {

SpatialIndex::SpatialIndex(const RoadNetwork* network, double cell_size_m)
    : network_(network),
      cell_size_m_(cell_size_m),
      tile_size_m_(network->tiling().tile_size_m),
      scratch_(std::make_shared<WorkerLocal<QueryScratch>>()),
      query_stats_(std::make_shared<AtomicStats>()) {
  // Queries translate edge ids to ordinals. Warming the adjacency also
  // rebuilds both ordinal tables, so concurrent queries never touch
  // the network's lazily rebuilt state.
  network_->WarmAdjacency();

  // Build pass: one (cell, edge) entry per distinct cell an edge's
  // geometry crosses, emitted in edge-ordinal order. The entries are
  // then counting-sorted into the per-tile CSR grids below.
  struct CellEntry {
    CellKey key;
    EdgeId edge;
    int32_t grid;  ///< Owner tile's slot, then its index into grids_.
  };
  std::vector<CellEntry> entries;
  std::vector<CellKey> edge_cells;  // this edge's cells, for the dedupe
  edge_bounds_.assign(network_->num_edges(), geo::Bbox::Empty());
  size_t next_ordinal = 0;
  network_->ForEachEdge([&](const Edge& e) {
    // ForEachEdge runs in tile-major order, so this counter IS the
    // edge's ordinal (RoadNetwork::EdgeOrdinal).
    const size_t ordinal = next_ordinal++;
    const std::vector<geo::EnPoint>& pts = e.geometry.points();
    if (pts.empty()) {
      // An edge with no geometry has no position to index; dropping it
      // here would make Nearby/Nearest silently blind to it, so the
      // drop is counted and surfaced through stats().
      ++empty_geometry_edges_;
      return;
    }
    geo::Bbox& bounds = edge_bounds_[ordinal];
    for (const geo::EnPoint& p : pts) bounds.Extend(p);
    // An edge crosses a handful of cells, so a linear find beats a
    // per-edge hash set.
    edge_cells.clear();
    const auto insert_cell = [&](const geo::EnPoint& p) {
      const CellKey key = KeyFor(p);
      if (std::find(edge_cells.begin(), edge_cells.end(), key) ==
          edge_cells.end()) {
        edge_cells.push_back(key);
        entries.push_back(CellEntry{key, e.id, 0});
      }
    };
    if (pts.size() == 1) {
      // Single-point (zero-length) geometry: the old segment loop
      // skipped these edges entirely and queries near them missed a
      // real edge. Index the lone point's cell instead.
      insert_cell(pts[0]);
      return;
    }
    for (size_t i = 0; i + 1 < pts.size(); ++i) {
      // Walk the segment at sub-cell steps so no crossed cell is missed.
      const double len = geo::Distance(pts[i], pts[i + 1]);
      const int steps =
          std::max(1, static_cast<int>(std::ceil(len / (cell_size_m_ / 2))));
      for (int k = 0; k <= steps; ++k) {
        const double t = static_cast<double>(k) / steps;
        insert_cell(pts[i] + t * (pts[i + 1] - pts[i]));
      }
    }
  });

  if (entries.empty()) return;

  // Each owner tile's cell extent, from the entries. Tiles get slots in
  // first-seen order; the grids are laid out in (ty, tx) order after.
  struct Extent {
    TileCoord coord;
    int32_t slot;
    int32_t min_cx;
    int32_t max_cx;
    int32_t min_cy;
    int32_t max_cy;
  };
  std::vector<Extent> extents;
  std::unordered_map<TileCoord, int32_t, TileCoordHash> slot_of;
  for (CellEntry& en : entries) {
    const CellKey k = en.key;
    const TileCoord tile = OwnerTileOf(k.cx, k.cy);
    const auto slot = static_cast<int32_t>(extents.size());
    const auto [it, inserted] = slot_of.try_emplace(tile, slot);
    if (inserted) {
      extents.push_back(Extent{tile, slot, k.cx, k.cx, k.cy, k.cy});
    } else {
      Extent& ex = extents[static_cast<size_t>(it->second)];
      ex.min_cx = std::min(ex.min_cx, k.cx);
      ex.max_cx = std::max(ex.max_cx, k.cx);
      ex.min_cy = std::min(ex.min_cy, k.cy);
      ex.max_cy = std::max(ex.max_cy, k.cy);
    }
    en.grid = it->second;
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.coord.ty != b.coord.ty ? a.coord.ty < b.coord.ty
                                              : a.coord.tx < b.coord.tx;
            });
  std::vector<int32_t> grid_of_slot(extents.size());
  grids_.resize(extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    const Extent& ex = extents[i];
    grid_of_slot[static_cast<size_t>(ex.slot)] = static_cast<int32_t>(i);
    TileGrid& g = grids_[i];
    g.coord = ex.coord;
    g.min_cx = ex.min_cx;
    g.min_cy = ex.min_cy;
    g.cols = ex.max_cx - ex.min_cx + 1;
    g.rows = ex.max_cy - ex.min_cy + 1;
    const size_t num_cells =
        static_cast<size_t>(g.cols) * static_cast<size_t>(g.rows);
    g.cell_offsets.assign(num_cells + 1, 0);
    tile_directory_.emplace(ex.coord, static_cast<int32_t>(i));
  }

  // Counting sort: count per cell, prefix-sum, then fill in entry
  // order, which keeps every cell's edge list in edge-ordinal order.
  const auto cell_index = [](const TileGrid& g, const CellKey& k) {
    return static_cast<size_t>(k.cy - g.min_cy) *
               static_cast<size_t>(g.cols) +
           static_cast<size_t>(k.cx - g.min_cx);
  };
  for (CellEntry& en : entries) {
    en.grid = grid_of_slot[static_cast<size_t>(en.grid)];
    TileGrid& g = grids_[static_cast<size_t>(en.grid)];
    ++g.cell_offsets[cell_index(g, en.key) + 1];
  }
  std::vector<std::vector<int32_t>> next(grids_.size());
  for (size_t i = 0; i < grids_.size(); ++i) {
    TileGrid& g = grids_[i];
    for (size_t c = 1; c < g.cell_offsets.size(); ++c) {
      g.cell_offsets[c] += g.cell_offsets[c - 1];
    }
    g.cell_edges.resize(static_cast<size_t>(g.cell_offsets.back()));
    next[i].assign(g.cell_offsets.begin(), g.cell_offsets.end() - 1);
  }
  for (const CellEntry& en : entries) {
    const auto gi = static_cast<size_t>(en.grid);
    TileGrid& g = grids_[gi];
    int32_t& slot = next[gi][cell_index(g, en.key)];
    g.cell_edges[static_cast<size_t>(slot++)] = en.edge;
  }
}

SpatialIndex::CellKey SpatialIndex::KeyFor(const geo::EnPoint& p) const {
  return CellKey{static_cast<int32_t>(std::floor(p.x / cell_size_m_)),
                 static_cast<int32_t>(std::floor(p.y / cell_size_m_))};
}

TileCoord SpatialIndex::OwnerTileOf(int32_t cx, int32_t cy) const {
  if (tile_size_m_ <= 0.0) return TileCoord{0, 0};
  // Owner of a cell = tile containing the cell's min corner; computed
  // from the lattice coordinate so build and query always agree.
  return TileCoord{
      static_cast<int32_t>(
          std::floor(static_cast<double>(cx) * cell_size_m_ / tile_size_m_)),
      static_cast<int32_t>(
          std::floor(static_cast<double>(cy) * cell_size_m_ / tile_size_m_))};
}

std::vector<EdgeCandidate> SpatialIndex::Nearby(const geo::EnPoint& p,
                                                double radius_m) const {
  // Gather candidate edges from all cells overlapping the query disc's
  // bounding square, padded by one cell so edge geometry that merely
  // passes near a cell corner is still found.
  const int reach =
      static_cast<int>(std::ceil(radius_m / cell_size_m_)) + 1;
  const CellKey center = KeyFor(p);
  const int64_t span = 2 * static_cast<int64_t>(reach) + 1;
  const int64_t cells_probed = span * span;
  QueryScratch& scratch = scratch_->Local();
  if (scratch.seen_stamp.size() < edge_bounds_.size()) {
    scratch.seen_stamp.assign(edge_bounds_.size(), 0);
    scratch.generation = 0;
  }
  if (++scratch.generation == 0) {  // stamp wrap: invalidate everything
    std::fill(scratch.seen_stamp.begin(), scratch.seen_stamp.end(), 0);
    scratch.generation = 1;
  }
  const uint32_t gen = scratch.generation;
  std::vector<EdgeId>& gathered = scratch.gathered;
  gathered.clear();

  const int32_t lo_cx = center.cx - reach;
  const int32_t hi_cx = center.cx + reach;
  const int32_t lo_cy = center.cy - reach;
  const int32_t hi_cy = center.cy + reach;
  const TileCoord lo_t = OwnerTileOf(lo_cx, lo_cy);
  const TileCoord hi_t = OwnerTileOf(hi_cx, hi_cy);
  int64_t tiles_probed = 0;
  for (int32_t tty = lo_t.ty; tty <= hi_t.ty; ++tty) {
    for (int32_t ttx = lo_t.tx; ttx <= hi_t.tx; ++ttx) {
      ++tiles_probed;
      const auto it = tile_directory_.find(TileCoord{ttx, tty});
      if (it == tile_directory_.end()) continue;
      const TileGrid& g = grids_[static_cast<size_t>(it->second)];
      // Clip the query window to this tile grid's occupied extent.
      const int32_t scan_lo_cx = std::max(lo_cx, g.min_cx);
      const int32_t scan_hi_cx = std::min(hi_cx, g.min_cx + g.cols - 1);
      const int32_t scan_lo_cy = std::max(lo_cy, g.min_cy);
      const int32_t scan_hi_cy = std::min(hi_cy, g.min_cy + g.rows - 1);
      // Every cell in the clipped rectangle is owned by this tile:
      // ownership is a per-axis floor, so a grid's occupied extent
      // never reaches into a neighbouring tile's cell range.
      for (int32_t cy = scan_lo_cy; cy <= scan_hi_cy; ++cy) {
        for (int32_t cx = scan_lo_cx; cx <= scan_hi_cx; ++cx) {
          const size_t i = static_cast<size_t>(cy - g.min_cy) *
                               static_cast<size_t>(g.cols) +
                           static_cast<size_t>(cx - g.min_cx);
          for (int32_t k = g.cell_offsets[i]; k < g.cell_offsets[i + 1];
               ++k) {
            const EdgeId id = g.cell_edges[static_cast<size_t>(k)];
            uint32_t& stamp =
                scratch.seen_stamp[network_->EdgeOrdinal(id)];
            if (stamp != gen) {
              stamp = gen;
              gathered.push_back(id);
            }
          }
        }
      }
    }
  }

  // Pre-projection reject against the edge's geometry bounds. The slack
  // keeps the reject strictly conservative against floating-point
  // rounding of the squared distance: an edge is only skipped when its
  // whole bounding box - and therefore its polyline - is beyond the
  // radius, so the surviving projections produce exactly the candidates
  // the unfiltered loop would.
  const double limit = radius_m + 1e-6;
  const double limit_sq = limit * limit;
  std::vector<EdgeCandidate> out;
  out.reserve(8);
  for (EdgeId id : gathered) {
    const geo::Bbox& b = edge_bounds_[network_->EdgeOrdinal(id)];
    const double ddx = std::max({b.min_x - p.x, 0.0, p.x - b.max_x});
    const double ddy = std::max({b.min_y - p.y, 0.0, p.y - b.max_y});
    if (ddx * ddx + ddy * ddy > limit_sq) continue;
    const geo::PolylineProjection proj =
        network_->edge(id).geometry.Project(p);
    if (proj.distance <= radius_m) {
      out.push_back(EdgeCandidate{id, proj});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const EdgeCandidate& a, const EdgeCandidate& b) {
              if (a.projection.distance != b.projection.distance) {
                return a.projection.distance < b.projection.distance;
              }
              return a.edge < b.edge;
            });

  // Counters are batched into a few relaxed adds per query; sums over
  // deterministic per-query work, so totals are thread-count-invariant.
  query_stats_->queries.fetch_add(1, std::memory_order_relaxed);
  query_stats_->cells_probed.fetch_add(cells_probed,
                                       std::memory_order_relaxed);
  query_stats_->tiles_probed.fetch_add(tiles_probed,
                                       std::memory_order_relaxed);
  query_stats_->candidates.fetch_add(
      static_cast<int64_t>(gathered.size()),
      std::memory_order_relaxed);
  query_stats_->hits.fetch_add(static_cast<int64_t>(out.size()),
                               std::memory_order_relaxed);
  return out;
}

std::optional<EdgeCandidate> SpatialIndex::Nearest(
    const geo::EnPoint& p, double max_radius_m) const {
  // Expand the search ring until a hit is found or the cap is reached.
  double radius = cell_size_m_;
  while (radius < max_radius_m * 2) {
    std::vector<EdgeCandidate> found = Nearby(p, std::min(radius, max_radius_m));
    if (!found.empty()) return found.front();
    if (radius >= max_radius_m) break;
    radius *= 2;
  }
  return std::nullopt;
}

size_t SpatialIndex::ApproxMemoryBytes() const {
  size_t bytes = sizeof(SpatialIndex);
  bytes += edge_bounds_.capacity() * sizeof(geo::Bbox);
  bytes += tile_directory_.size() *
           (sizeof(TileCoord) + sizeof(int32_t) + 2 * sizeof(void*));
  for (const TileGrid& g : grids_) {
    bytes += sizeof(TileGrid);
    bytes += g.cell_offsets.capacity() * sizeof(int32_t);
    bytes += g.cell_edges.capacity() * sizeof(EdgeId);
  }
  return bytes;
}

SpatialIndexStats SpatialIndex::stats() const {
  SpatialIndexStats s;
  s.queries = query_stats_->queries.load(std::memory_order_relaxed);
  s.cells_probed = query_stats_->cells_probed.load(std::memory_order_relaxed);
  s.tiles_probed = query_stats_->tiles_probed.load(std::memory_order_relaxed);
  s.candidates = query_stats_->candidates.load(std::memory_order_relaxed);
  s.hits = query_stats_->hits.load(std::memory_order_relaxed);
  s.empty_geometry_edges = empty_geometry_edges_;
  return s;
}

}  // namespace roadnet
}  // namespace taxitrace
