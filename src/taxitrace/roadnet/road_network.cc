#include "taxitrace/roadnet/road_network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "taxitrace/common/check.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace roadnet {

RoadNetwork::RoadNetwork(const geo::LatLon& origin,
                         const TilingOptions& tiling)
    : origin_(origin), projection_(origin), tiling_(tiling) {
  TT_CHECK(tiling_.tile_size_m >= 0.0);
  if (tiling_.tile_size_m == 0.0) {
    // Single-tile mode: tile 0 exists from the start so packed ids are
    // the historical dense ids and TileAt() always resolves.
    tiles_.emplace_back();
    tile_directory_.emplace(TileCoord{0, 0}, 0);
  }
}

const Vertex& RoadNetwork::vertex(VertexId id) const {
  TT_DCHECK(HasVertex(id));
  return tiles_[static_cast<size_t>(TileIndexOf(id))]
      .vertices[static_cast<size_t>(LocalIdOf(id))];
}

const Edge& RoadNetwork::edge(EdgeId id) const {
  TT_DCHECK(HasEdge(id));
  return tiles_[static_cast<size_t>(TileIndexOf(id))]
      .edges[static_cast<size_t>(LocalIdOf(id))];
}

const MapFeature& RoadNetwork::feature(FeatureId id) const {
  TT_DCHECK(id >= 0 && static_cast<size_t>(id) < features_.size());
  return features_[static_cast<size_t>(id)];
}

const GraphTile& RoadNetwork::tile(TileIndex t) const {
  TT_DCHECK(t >= 0 && static_cast<size_t>(t) < tiles_.size());
  return tiles_[static_cast<size_t>(t)];
}

std::span<const BoundaryArc> RoadNetwork::BoundaryArcs(TileIndex t) const {
  if (adjacency_stale()) RebuildAdjacency();
  return tile(t).boundary;
}

TileIndex RoadNetwork::TileAt(const geo::EnPoint& p) const {
  const TileCoord coord = tiling_.tile_size_m > 0.0
                              ? TileCoordOfPoint(p, tiling_.tile_size_m)
                              : TileCoord{0, 0};
  const auto it = tile_directory_.find(coord);
  return it == tile_directory_.end() ? TileIndex{-1} : it->second;
}

size_t RoadNetwork::VertexOrdinal(VertexId id) const {
  TT_DCHECK(HasVertex(id));
  if (vertex_bases_stale()) RebuildVertexBases();
  return vertex_base_[static_cast<size_t>(TileIndexOf(id))] +
         static_cast<size_t>(LocalIdOf(id));
}

size_t RoadNetwork::EdgeOrdinal(EdgeId id) const {
  TT_DCHECK(HasEdge(id));
  if (edge_bases_stale()) RebuildEdgeBases();
  return edge_base_[static_cast<size_t>(TileIndexOf(id))] +
         static_cast<size_t>(LocalIdOf(id));
}

VertexId RoadNetwork::VertexIdAt(size_t ordinal) const {
  TT_DCHECK(ordinal < num_vertices_);
  if (vertex_bases_stale()) RebuildVertexBases();
  // Largest tile whose base is <= ordinal.
  const auto it = std::upper_bound(vertex_base_.begin(), vertex_base_.end(),
                                   ordinal);
  const auto t = static_cast<size_t>(it - vertex_base_.begin()) - 1;
  return PackTiledId(static_cast<TileIndex>(t),
                     static_cast<int32_t>(ordinal - vertex_base_[t]));
}

EdgeId RoadNetwork::EdgeIdAt(size_t ordinal) const {
  TT_DCHECK(ordinal < num_edges_);
  if (edge_bases_stale()) RebuildEdgeBases();
  const auto it =
      std::upper_bound(edge_base_.begin(), edge_base_.end(), ordinal);
  const auto t = static_cast<size_t>(it - edge_base_.begin()) - 1;
  return PackTiledId(static_cast<TileIndex>(t),
                     static_cast<int32_t>(ordinal - edge_base_[t]));
}

const std::vector<EdgeId>& RoadNetwork::IncidentEdges(VertexId v) const {
  TT_DCHECK(HasVertex(v));
  return tiles_[static_cast<size_t>(TileIndexOf(v))]
      .incident[static_cast<size_t>(LocalIdOf(v))];
}

void RoadNetwork::WarmAdjacency() const {
  if (adjacency_stale()) RebuildAdjacency();
}

void RoadNetwork::RebuildVertexBases() const {
  vertex_base_count_ = num_vertices_;
  vertex_base_.assign(tiles_.size(), 0);
  size_t sum = 0;
  for (size_t t = 0; t < tiles_.size(); ++t) {
    vertex_base_[t] = sum;
    sum += tiles_[t].vertices.size();
  }
}

void RoadNetwork::RebuildEdgeBases() const {
  edge_base_count_ = num_edges_;
  edge_base_.assign(tiles_.size(), 0);
  size_t sum = 0;
  for (size_t t = 0; t < tiles_.size(); ++t) {
    edge_base_[t] = sum;
    sum += tiles_[t].edges.size();
  }
}

void RoadNetwork::RebuildAdjacency() const {
  for (GraphTile& t : tiles_) {
    const size_t n = t.vertices.size();
    t.csr_offsets.assign(n + 1, 0);
    for (size_t v = 0; v < n; ++v) {
      t.csr_offsets[v + 1] =
          t.csr_offsets[v] + static_cast<int32_t>(t.incident[v].size());
    }
    t.csr_arcs.resize(static_cast<size_t>(t.csr_offsets[n]));
    t.boundary.clear();
    size_t next = 0;
    for (size_t v = 0; v < n; ++v) {
      const VertexId base = t.vertices[v].id;
      for (const EdgeId eid : t.incident[v]) {
        const Edge& e = edge(eid);
        // A self-loop appears twice in the incidence list; both copies
        // leave along the edge orientation, matching Opposite()'s
        // from-first resolution.
        const bool forward = e.from == base;
        HalfEdge arc;
        arc.edge = eid;
        arc.head = forward ? e.to : e.from;
        arc.length_m = e.length_m;
        arc.traversable_out = CanTraverse(eid, forward);
        arc.traversable_in = CanTraverse(eid, !forward);
        arc.forward = forward;
        t.csr_arcs[next++] = arc;
        if (TileIndexOf(arc.head) != TileIndexOf(base)) {
          t.boundary.push_back(BoundaryArc{base, arc.head, eid});
        }
      }
    }
  }
  RebuildVertexBases();
  RebuildEdgeBases();
  csr_vertex_count_ = num_vertices_;
  csr_edge_count_ = num_edges_;
}

bool RoadNetwork::CanTraverse(EdgeId e, bool forward) const {
  const TravelDirection d = edge(e).direction;
  if (d == TravelDirection::kBoth) return true;
  return forward ? d == TravelDirection::kForward
                 : d == TravelDirection::kBackward;
}

VertexId RoadNetwork::Opposite(EdgeId e, VertexId v) const {
  const Edge& ed = edge(e);
  TT_DCHECK(ed.from == v || ed.to == v);
  return ed.from == v ? ed.to : ed.from;
}

geo::EnPoint RoadNetwork::PointAt(const EdgePosition& pos) const {
  return edge(pos.edge).geometry.Interpolate(pos.arc_length_m);
}

int RoadNetwork::CountFeaturesOnEdge(EdgeId e, FeatureType t) const {
  int n = 0;
  for (FeatureId f : edge(e).feature_ids) {
    if (feature(f).type == t) ++n;
  }
  return n;
}

int RoadNetwork::CountFeatures(FeatureType t) const {
  int n = 0;
  for (const MapFeature& f : features_) {
    if (f.type == t) ++n;
  }
  return n;
}

geo::Bbox RoadNetwork::Bounds() const {
  geo::Bbox box = geo::Bbox::Empty();
  ForEachEdge([&](const Edge& e) { box.Extend(e.geometry.Bounds()); });
  return box;
}

size_t RoadNetwork::ApproxMemoryBytes() const {
  size_t bytes = sizeof(RoadNetwork);
  bytes += features_.capacity() * sizeof(MapFeature);
  bytes += tile_directory_.size() *
           (sizeof(TileCoord) + sizeof(TileIndex) + 2 * sizeof(void*));
  bytes += vertex_base_.capacity() * sizeof(size_t);
  bytes += edge_base_.capacity() * sizeof(size_t);
  for (const GraphTile& t : tiles_) {
    bytes += sizeof(GraphTile);
    bytes += t.vertices.capacity() * sizeof(Vertex);
    bytes += t.csr_offsets.capacity() * sizeof(int32_t);
    bytes += t.csr_arcs.capacity() * sizeof(HalfEdge);
    bytes += t.boundary.capacity() * sizeof(BoundaryArc);
    bytes += t.incident.capacity() * sizeof(std::vector<EdgeId>);
    for (const std::vector<EdgeId>& inc : t.incident) {
      bytes += inc.capacity() * sizeof(EdgeId);
    }
    bytes += t.edges.capacity() * sizeof(Edge);
    for (const Edge& e : t.edges) {
      bytes += e.geometry.size() * sizeof(geo::EnPoint);
      bytes += e.element_ids.capacity() * sizeof(ElementId);
      bytes += e.feature_ids.capacity() * sizeof(FeatureId);
      bytes += e.road_name.capacity();
    }
  }
  return bytes;
}

TileIndex RoadNetwork::TileForPosition(const geo::EnPoint& position) {
  if (tiling_.tile_size_m == 0.0) return 0;
  const TileCoord coord = TileCoordOfPoint(position, tiling_.tile_size_m);
  const auto it = tile_directory_.find(coord);
  if (it != tile_directory_.end()) return it->second;
  TT_CHECK(tiles_.size() < static_cast<size_t>(kMaxTiles));
  const auto index = static_cast<TileIndex>(tiles_.size());
  tiles_.emplace_back();
  tiles_.back().coord = coord;
  tile_directory_.emplace(coord, index);
  return index;
}

VertexId RoadNetwork::AddVertex(const geo::EnPoint& position,
                                bool is_junction) {
  const TileIndex t = TileForPosition(position);
  GraphTile& tl = tiles_[static_cast<size_t>(t)];
  TT_CHECK(tl.vertices.size() <= static_cast<size_t>(kMaxLocalId));
  const VertexId id =
      PackTiledId(t, static_cast<int32_t>(tl.vertices.size()));
  tl.vertices.push_back(Vertex{id, position, is_junction});
  tl.incident.emplace_back();
  ++num_vertices_;
  return id;
}

EdgeId RoadNetwork::AddEdge(Edge edge) {
  TT_CHECK(HasVertex(edge.from));
  TT_CHECK(HasVertex(edge.to));
  const TileIndex t = TileIndexOf(edge.from);
  GraphTile& tl = tiles_[static_cast<size_t>(t)];
  TT_CHECK(tl.edges.size() <= static_cast<size_t>(kMaxLocalId));
  const EdgeId id = PackTiledId(t, static_cast<int32_t>(tl.edges.size()));
  edge.id = id;
  edge.length_m = edge.geometry.Length();
  tiles_[static_cast<size_t>(TileIndexOf(edge.from))]
      .incident[static_cast<size_t>(LocalIdOf(edge.from))]
      .push_back(id);
  tiles_[static_cast<size_t>(TileIndexOf(edge.to))]
      .incident[static_cast<size_t>(LocalIdOf(edge.to))]
      .push_back(id);
  tl.edges.push_back(std::move(edge));
  ++num_edges_;
  return id;
}

FeatureId RoadNetwork::AddFeature(FeatureType type,
                                  const geo::EnPoint& position,
                                  double attach_radius_m) {
  const FeatureId id = static_cast<FeatureId>(features_.size());
  features_.push_back(MapFeature{id, type, position});

  EdgeId best_edge = kInvalidEdge;
  double best_dist = attach_radius_m;
  ForEachEdge([&](const Edge& e) {
    if (!e.geometry.Bounds().Inflated(attach_radius_m).Contains(position)) {
      return;
    }
    const double d = e.geometry.Project(position).distance;
    if (d <= best_dist) {
      best_dist = d;
      best_edge = e.id;
    }
  });
  if (best_edge != kInvalidEdge) {
    tiles_[static_cast<size_t>(TileIndexOf(best_edge))]
        .edges[static_cast<size_t>(LocalIdOf(best_edge))]
        .feature_ids.push_back(id);
  }
  return id;
}

Status RoadNetwork::Validate() const {
  for (size_t ti = 0; ti < tiles_.size(); ++ti) {
    const GraphTile& tl = tiles_[ti];
    const auto tidx = static_cast<TileIndex>(ti);
    for (size_t i = 0; i < tl.vertices.size(); ++i) {
      const VertexId expect = PackTiledId(tidx, static_cast<int32_t>(i));
      if (tl.vertices[i].id != expect) {
        return Status::Corruption(StrFormat("vertex %zu of tile %zu has id %d",
                                            i, ti, tl.vertices[i].id));
      }
      if (tiling_.tile_size_m > 0.0 &&
          TileCoordOfPoint(tl.vertices[i].position, tiling_.tile_size_m) !=
              tl.coord) {
        return Status::Corruption(StrFormat(
            "vertex %d lies outside its tile", tl.vertices[i].id));
      }
    }
    for (size_t i = 0; i < tl.edges.size(); ++i) {
      const Edge& e = tl.edges[i];
      if (e.id != PackTiledId(tidx, static_cast<int32_t>(i))) {
        return Status::Corruption(
            StrFormat("edge %zu of tile %zu has id %d", i, ti, e.id));
      }
      if (!HasVertex(e.from) || !HasVertex(e.to)) {
        return Status::Corruption(StrFormat("edge %d has bad endpoints", e.id));
      }
      if (TileIndexOf(e.from) != tidx) {
        return Status::Corruption(StrFormat(
            "edge %d is not stored in the tile of its from-vertex", e.id));
      }
      if (e.geometry.size() < 2) {
        return Status::Corruption(StrFormat("edge %d has no geometry", e.id));
      }
      constexpr double kSnapTolerance = 0.5;  // metres
      if (geo::Distance(e.geometry.front(), vertex(e.from).position) >
              kSnapTolerance ||
          geo::Distance(e.geometry.back(), vertex(e.to).position) >
              kSnapTolerance) {
        return Status::Corruption(
            StrFormat("edge %d geometry does not meet its vertices", e.id));
      }
      if (!(e.length_m > 0.0)) {
        return Status::Corruption(StrFormat("edge %d has zero length", e.id));
      }
      if (!(e.speed_limit_kmh > 0.0)) {
        return Status::Corruption(
            StrFormat("edge %d has non-positive speed limit", e.id));
      }
      for (FeatureId f : e.feature_ids) {
        if (f < 0 || static_cast<size_t>(f) >= features_.size()) {
          return Status::Corruption(
              StrFormat("edge %d references missing feature %lld", e.id,
                        static_cast<long long>(f)));
        }
      }
    }
    for (size_t v = 0; v < tl.incident.size(); ++v) {
      const VertexId vid = PackTiledId(tidx, static_cast<int32_t>(v));
      for (EdgeId e : tl.incident[v]) {
        if (!HasEdge(e)) {
          return Status::Corruption(StrFormat(
              "incidence list of vertex %d lists missing edge %d", vid, e));
        }
        const Edge& ed = edge(e);
        if (ed.from != vid && ed.to != vid) {
          return Status::Corruption(
              StrFormat("incidence list of vertex %d lists edge %d", vid, e));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace roadnet
}  // namespace taxitrace
