// The prepared road-network graph G = {V, E}: vertices are road junctions
// (or terminal dead-ends), edges are maximal chains of traffic elements
// between two vertices (Section IV-A of the paper). Point features are
// attached to the edge they lie on.
//
// Storage is tiled (tile.h): vertices and edges live in fixed-size
// spatial tiles keyed by the position of the vertex (edges belong to
// the tile of their `from` endpoint), and every id packs (tile index,
// local ordinal) into the historical 32-bit VertexId / EdgeId. With the
// default TilingOptions (tile_size_m == 0) the whole map is one tile
// and packed ids equal the old dense ids bit-for-bit, so existing maps,
// serialised snapshots, and id-seeded RNG streams are unchanged.

#ifndef TAXITRACE_ROADNET_ROAD_NETWORK_H_
#define TAXITRACE_ROADNET_ROAD_NETWORK_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taxitrace/common/hash.h"
#include "taxitrace/common/result.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/geo/polyline.h"
#include "taxitrace/roadnet/map_features.h"
#include "taxitrace/roadnet/tile.h"
#include "taxitrace/roadnet/traffic_element.h"

namespace taxitrace {
namespace roadnet {

/// Index of a vertex within a RoadNetwork (packed tile/local, tile.h).
using VertexId = int32_t;
/// Index of an edge within a RoadNetwork (packed tile/local, tile.h).
using EdgeId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// A graph vertex: a junction (>= 3 incident elements) or a terminal
/// point (1 incident element).
struct Vertex {
  VertexId id = kInvalidVertex;
  geo::EnPoint position;
  bool is_junction = false;  ///< True for degree >= 3 endpoints.
};

/// A graph edge: one or more traffic elements merged into a single chain.
struct Edge {
  EdgeId id = kInvalidEdge;
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  geo::Polyline geometry;  ///< Oriented from `from` to `to`.
  double length_m = 0.0;
  double speed_limit_kmh = 40.0;
  FunctionalClass functional_class = FunctionalClass::kLocalStreet;
  /// Travel constraint relative to the edge orientation (from -> to).
  TravelDirection direction = TravelDirection::kBoth;
  /// Ids of the contributing traffic elements, in chain order (the
  /// `elements` column of Table 1).
  std::vector<ElementId> element_ids;
  std::string road_name;
  /// Features lying on this edge.
  std::vector<FeatureId> feature_ids;
};

/// A position along an edge, measured as arc length from the edge's
/// `from` end.
struct EdgePosition {
  EdgeId edge = kInvalidEdge;
  double arc_length_m = 0.0;
};

/// One incident half-edge in the flattened (CSR) adjacency: everything
/// a graph traversal needs about leaving a base vertex through one
/// edge, precomputed so the hot loops never chase Edge pointers for
/// topology. 24 bytes, cache-line friendly: a degree-4 junction's whole
/// neighbourhood fits in two lines.
struct HalfEdge {
  EdgeId edge = kInvalidEdge;
  VertexId head = kInvalidVertex;  ///< Far endpoint seen from the base.
  double length_m = 0.0;
  /// base -> head is drivable (the router's out-arc test).
  bool traversable_out = false;
  /// head -> base is drivable (the reversed-graph arc test).
  bool traversable_in = false;
  /// Leaving the base vertex follows the edge orientation (from -> to).
  bool forward = false;
};

/// One arc crossing a tile boundary, recorded in the owning tile's
/// boundary table during the CSR build: traversals leaving the tile go
/// through these, and the invariant tests check every such arc is
/// visible (with symmetric traversability) from both sides.
struct BoundaryArc {
  VertexId from = kInvalidVertex;  ///< Base vertex, inside this tile.
  VertexId head = kInvalidVertex;  ///< Far endpoint, in another tile.
  EdgeId edge = kInvalidEdge;
};

/// How the builder partitions the map into tiles. The default (0) keeps
/// the whole network in one tile, reproducing the historical flat
/// layout exactly.
struct TilingOptions {
  /// Edge length of the square tiles, metres. 0 disables tiling.
  double tile_size_m = 0.0;
};

/// One fixed-size spatial tile: a self-contained slab of vertices,
/// edges, incidence lists and CSR adjacency. Local ordinals index the
/// vectors directly; globals are packed via tile.h.
struct GraphTile {
  TileCoord coord;
  std::vector<Vertex> vertices;
  std::vector<Edge> edges;
  /// Incident edge ids (global) per local vertex, insertion order.
  std::vector<std::vector<EdgeId>> incident;

  // CSR mirror of `incident`, rebuilt lazily by the owning network
  // (see RoadNetwork::OutArcs for the threading contract).
  std::vector<int32_t> csr_offsets;
  std::vector<HalfEdge> csr_arcs;
  /// Arcs whose head vertex lies in a different tile, in CSR order.
  std::vector<BoundaryArc> boundary;
};

/// The prepared road network. Construct through `PrepareRoadNetwork()`
/// (map_preparation.h) or the builder API below.
class RoadNetwork {
 public:
  /// Creates an empty network whose local frame is anchored at `origin`.
  explicit RoadNetwork(const geo::LatLon& origin,
                       const TilingOptions& tiling = TilingOptions{});

  /// WGS84 anchor of the local east/north frame.
  [[nodiscard]] const geo::LatLon& origin() const { return origin_; }
  /// Projection between WGS84 and the local frame.
  [[nodiscard]] const geo::LocalProjection& projection() const {
    return projection_;
  }
  /// The tiling this network was built with.
  [[nodiscard]] const TilingOptions& tiling() const { return tiling_; }

  // --- Sizes and id enumeration ------------------------------------------
  //
  // Ids are packed (tile, local) pairs and are NOT dense when the map
  // has more than one tile; code that needs a dense [0, n) range (CSV
  // columns, scratch arrays, multiplier tables) must go through the
  // ordinal mapping below. In single-tile maps id == ordinal.

  [[nodiscard]] size_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] size_t num_edges() const { return num_edges_; }
  [[nodiscard]] size_t num_tiles() const { return tiles_.size(); }

  [[nodiscard]] bool HasVertex(VertexId id) const {
    if (id < 0) return false;
    const auto t = static_cast<size_t>(TileIndexOf(id));
    return t < tiles_.size() &&
           static_cast<size_t>(LocalIdOf(id)) < tiles_[t].vertices.size();
  }
  [[nodiscard]] bool HasEdge(EdgeId id) const {
    if (id < 0) return false;
    const auto t = static_cast<size_t>(TileIndexOf(id));
    return t < tiles_.size() &&
           static_cast<size_t>(LocalIdOf(id)) < tiles_[t].edges.size();
  }

  /// Dense ordinal of a vertex / edge in tile-major order: tile index
  /// first, local ordinal second. Stable for a finished network; equal
  /// to the id itself in single-tile maps.
  [[nodiscard]] size_t VertexOrdinal(VertexId id) const;
  [[nodiscard]] size_t EdgeOrdinal(EdgeId id) const;

  /// Inverse of the ordinal mapping.
  [[nodiscard]] VertexId VertexIdAt(size_t ordinal) const;
  [[nodiscard]] EdgeId EdgeIdAt(size_t ordinal) const;

  /// Visits every vertex / edge in tile-major (== ordinal, == insertion
  /// for single-tile maps) order. Deterministic.
  template <typename Fn>
  void ForEachVertex(Fn&& fn) const {
    for (const GraphTile& t : tiles_) {
      for (const Vertex& v : t.vertices) fn(v);
    }
  }
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (const GraphTile& t : tiles_) {
      for (const Edge& e : t.edges) fn(e);
    }
  }

  [[nodiscard]] const std::vector<MapFeature>& features() const {
    return features_;
  }

  /// The vertex / edge / feature with the given id. Passing an invalid
  /// id is a programming error (TT_DCHECK'd).
  [[nodiscard]] const Vertex& vertex(VertexId id) const;
  [[nodiscard]] const Edge& edge(EdgeId id) const;
  [[nodiscard]] const MapFeature& feature(FeatureId id) const;

  // --- Tiles -------------------------------------------------------------

  /// The tile with the given dense index.
  [[nodiscard]] const GraphTile& tile(TileIndex t) const;

  /// Cross-tile arcs leaving tile `t`, in CSR order. Empty until the
  /// adjacency is built; empty forever on single-tile maps.
  [[nodiscard]] std::span<const BoundaryArc> BoundaryArcs(TileIndex t) const;

  /// Dense index of the tile whose lattice cell contains `p`, or -1 if
  /// no vertex was ever added there. Single-tile maps always return 0.
  [[nodiscard]] TileIndex TileAt(const geo::EnPoint& p) const;

  /// Approximate resident bytes of the graph storage (vertices, edges
  /// incl. geometry, incidence, CSR slabs, boundary tables, directory).
  [[nodiscard]] size_t ApproxMemoryBytes() const;

  // --- Topology ----------------------------------------------------------

  /// Edges incident to `v` (regardless of traversability).
  [[nodiscard]] const std::vector<EdgeId>& IncidentEdges(VertexId v) const;

  /// Flattened (CSR) adjacency of `v`: one HalfEdge per entry of
  /// IncidentEdges(v), in the same order, with head vertex, length and
  /// per-direction traversability precomputed. Rebuilt lazily after the
  /// last builder mutation; the rebuild mutates shared state, so the
  /// first call on a finished network must happen before the network is
  /// shared across threads (Router's constructor and WarmAdjacency()
  /// both do this). Concurrent calls are race-free once warmed.
  /// Defined inline below the class: it sits in every search's hot loop.
  [[nodiscard]] std::span<const HalfEdge> OutArcs(VertexId v) const;

  /// Builds the CSR adjacency now if it is stale (idempotent). Call
  /// after the last builder mutation when the network is about to be
  /// read from multiple threads.
  void WarmAdjacency() const;

  /// True when the edge may be driven in the given orientation
  /// (forward = from -> to).
  [[nodiscard]] bool CanTraverse(EdgeId e, bool forward) const;

  /// The vertex at the far end of `e` when entering from `v`. Requires
  /// `v` to be one of the edge's endpoints.
  [[nodiscard]] VertexId Opposite(EdgeId e, VertexId v) const;

  /// Point on the edge geometry at the given arc length (clamped).
  [[nodiscard]] geo::EnPoint PointAt(const EdgePosition& pos) const;

  /// Number of features of type `t` attached to edge `e`.
  [[nodiscard]] int CountFeaturesOnEdge(EdgeId e, FeatureType t) const;

  /// Total number of features of type `t` in the map.
  [[nodiscard]] int CountFeatures(FeatureType t) const;

  /// Bounding box of all edge geometry.
  [[nodiscard]] geo::Bbox Bounds() const;

  // --- Builder API -------------------------------------------------------

  /// Adds a vertex and returns its id (packed to the tile containing
  /// `position` under the network's tiling).
  VertexId AddVertex(const geo::EnPoint& position, bool is_junction);

  /// Adds an edge; `edge.id` is ignored and assigned (the edge belongs
  /// to the tile of its `from` vertex). `from`/`to` must be valid.
  /// Returns the assigned id.
  EdgeId AddEdge(Edge edge);

  /// Adds a point feature, attaching it to the nearest edge within
  /// `attach_radius_m` (no attachment if none is close enough). Returns
  /// the assigned feature id.
  FeatureId AddFeature(FeatureType type, const geo::EnPoint& position,
                       double attach_radius_m = 40.0);

  /// Structural validation: endpoint/geometry agreement, positive
  /// lengths, id packing consistency, feature attachment consistency.
  Status Validate() const;

 private:
  void RebuildAdjacency() const;
  void RebuildVertexBases() const;
  void RebuildEdgeBases() const;
  [[nodiscard]] bool adjacency_stale() const {
    return csr_vertex_count_ != num_vertices_ ||
           csr_edge_count_ != num_edges_;
  }
  // Each ordinal table goes stale only with its own count and rebuilds
  // in O(tiles), so builder code may interleave AddEdge with vertex
  // ordinal lookups (GenerateMetroMap's repair loop) without rebuilding
  // anything. A new tile only ever arrives with a vertex and is
  // appended last, so a stale-length edge table still maps every edge.
  [[nodiscard]] bool vertex_bases_stale() const {
    return vertex_base_count_ != num_vertices_;
  }
  [[nodiscard]] bool edge_bases_stale() const {
    return edge_base_count_ != num_edges_;
  }
  /// Dense index of the tile containing `position`, creating it if new.
  TileIndex TileForPosition(const geo::EnPoint& position);

  geo::LatLon origin_;
  geo::LocalProjection projection_;
  TilingOptions tiling_;

  // `mutable` members are lazily rebuilt caches, semantically part of
  // the const read API (same contract as the CSR before tiling).
  mutable std::vector<GraphTile> tiles_;
  std::unordered_map<TileCoord, TileIndex, TileCoordHash> tile_directory_;
  std::vector<MapFeature> features_;
  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;

  // Cumulative vertex/edge counts per tile for the ordinal mapping.
  mutable std::vector<size_t> vertex_base_;
  mutable std::vector<size_t> edge_base_;
  mutable size_t csr_vertex_count_ = 0;  ///< num_vertices_ at last build
  mutable size_t csr_edge_count_ = 0;    ///< num_edges_ at last build
  mutable size_t vertex_base_count_ = 0;  ///< num_vertices_ at last rebuild
  mutable size_t edge_base_count_ = 0;    ///< num_edges_ at last rebuild
};

inline std::span<const HalfEdge> RoadNetwork::OutArcs(VertexId v) const {
  if (adjacency_stale()) RebuildAdjacency();
  const GraphTile& t = tiles_[static_cast<size_t>(TileIndexOf(v))];
  const auto local = static_cast<size_t>(LocalIdOf(v));
  const auto begin = static_cast<size_t>(t.csr_offsets[local]);
  const auto end = static_cast<size_t>(t.csr_offsets[local + 1]);
  return {t.csr_arcs.data() + begin, end - begin};
}

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_ROAD_NETWORK_H_
