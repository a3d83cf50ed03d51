// Uniform-grid spatial index over edge geometry, used by map matching and
// feature attachment to find candidate edges near a GPS point quickly.

#ifndef TAXITRACE_ROADNET_SPATIAL_INDEX_H_
#define TAXITRACE_ROADNET_SPATIAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/roadnet/road_network.h"
#include "taxitrace/roadnet/tile.h"

namespace taxitrace {
namespace roadnet {

/// An edge near a query point, with the projection details.
struct EdgeCandidate {
  EdgeId edge = kInvalidEdge;
  geo::PolylineProjection projection;  ///< Nearest point on the edge.
};

/// Probe accounting, readable at any time via SpatialIndex::stats().
/// The counters are sums over deterministic per-query work, so their
/// totals are identical at any thread count.
struct SpatialIndexStats {
  int64_t queries = 0;        ///< Nearby() calls (Nearest() makes several).
  int64_t cells_probed = 0;   ///< grid-cell lookups performed.
  int64_t tiles_probed = 0;   ///< tile-directory lookups performed.
  int64_t candidates = 0;     ///< distinct edges distance-checked.
  int64_t hits = 0;           ///< candidates returned within the radius.
  int64_t empty_geometry_edges = 0;  ///< edges dropped at build time.
};

/// Uniform grid over the bounding box of a network's edges. Each cell
/// stores the edges whose geometry passes through it. The index is
/// immutable after construction and holds a pointer to the network, which
/// must outlive it.
///
/// Storage follows the network's tiling (tile.h): one dense row-major
/// CSR cell grid per occupied tile, found through a top-level tile
/// directory, so resident index memory scales with the tiles geometry
/// actually crosses and a probe inside a tile stays an array load. Cell
/// ownership is decided by the cell's lattice position alone, so every
/// cell lives in exactly one tile grid; a query walks the (usually one,
/// at most four) tiles overlapping its search square. On single-tile
/// networks there is exactly one grid and the layout, candidate set,
/// returned hits and stats() counters reproduce the historical flat
/// implementation exactly.
class SpatialIndex {
 public:
  /// Builds the index. `cell_size_m` trades memory for query precision;
  /// 50 m suits a downtown-scale network.
  explicit SpatialIndex(const RoadNetwork* network, double cell_size_m = 50.0);

  /// All edges with a point within `radius_m` of `p`, one candidate per
  /// edge (its closest projection), sorted by ascending distance.
  std::vector<EdgeCandidate> Nearby(const geo::EnPoint& p,
                                    double radius_m) const;

  /// The closest edge within `max_radius_m`, if any.
  std::optional<EdgeCandidate> Nearest(const geo::EnPoint& p,
                                       double max_radius_m) const;

  /// The network this index was built over.
  [[nodiscard]] const RoadNetwork& network() const { return *network_; }

  /// Number of per-tile cell grids (1 on single-tile networks).
  [[nodiscard]] size_t num_tile_grids() const { return grids_.size(); }

  /// Approximate resident bytes of the index storage.
  [[nodiscard]] size_t ApproxMemoryBytes() const;

  /// Snapshot of the probe counters accumulated so far.
  [[nodiscard]] SpatialIndexStats stats() const;

 private:
  struct CellKey {
    int32_t cx;
    int32_t cy;
    friend bool operator==(const CellKey&, const CellKey&) = default;
  };

  /// One tile's dense row-major cell grid, flattened CSR-style: cell
  /// (cx, cy) owns the edge ids cell_edges[cell_offsets[i] ..
  /// cell_offsets[i + 1]) with i = (cy - min_cy) * cols + (cx - min_cx).
  /// The extent spans only this tile's occupied cells.
  struct TileGrid {
    TileCoord coord;
    int32_t min_cx = 0;
    int32_t min_cy = 0;
    int32_t cols = 0;
    int32_t rows = 0;
    std::vector<int32_t> cell_offsets;
    std::vector<EdgeId> cell_edges;
  };

  [[nodiscard]] CellKey KeyFor(const geo::EnPoint& p) const;

  /// Tile owning cell (cx, cy): the tile containing the cell's min
  /// corner. All tiles when tiling is off is the single {0, 0}.
  [[nodiscard]] TileCoord OwnerTileOf(int32_t cx, int32_t cy) const;

  // Query counters live behind a shared_ptr so the index stays
  // copyable; queries batch their increments (a handful of relaxed
  // atomic adds per call) to keep the hot path unchanged.
  struct AtomicStats {
    std::atomic<int64_t> queries{0};
    std::atomic<int64_t> cells_probed{0};
    std::atomic<int64_t> tiles_probed{0};
    std::atomic<int64_t> candidates{0};
    std::atomic<int64_t> hits{0};
  };

  const RoadNetwork* network_;
  double cell_size_m_;
  double tile_size_m_;  ///< 0 when the network is single-tile.
  std::vector<TileGrid> grids_;
  /// Top-level directory: tile lattice coordinate -> index into grids_.
  std::unordered_map<TileCoord, int32_t, TileCoordHash> tile_directory_;
  // Bounding box of each edge's geometry, indexed by edge *ordinal*
  // (RoadNetwork::EdgeOrdinal; == id on single-tile maps). The box
  // encloses the polyline, so a point farther than `r` from the box is
  // farther than `r` from the edge — a safe pre-projection reject.
  std::vector<geo::Bbox> edge_bounds_;
  // Per-worker query scratch: the gathered-candidate list and a
  // generation-stamped seen marker per edge ordinal (same trick as the
  // router's SearchScratch), so a query deduplicates with one array
  // read per gathered id and allocates nothing in steady state. Purely
  // an execution detail — the deduplicated set is what the old
  // per-query sort produced, and the output is fully re-ordered
  // afterwards.
  struct QueryScratch {
    std::vector<EdgeId> gathered;
    std::vector<uint32_t> seen_stamp;
    uint32_t generation = 0;
  };
  std::shared_ptr<WorkerLocal<QueryScratch>> scratch_;
  std::shared_ptr<AtomicStats> query_stats_;
  int64_t empty_geometry_edges_ = 0;
};

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_SPATIAL_INDEX_H_
