#include "taxitrace/roadnet/map_preparation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "taxitrace/common/logging.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace roadnet {
namespace {

// Quantised endpoint key used to snap coincident element endpoints.
struct PointKey {
  int64_t qx;
  int64_t qy;
  friend bool operator==(const PointKey&, const PointKey&) = default;
  friend auto operator<=>(const PointKey&, const PointKey&) = default;
};

struct PointKeyHash {
  size_t operator()(const PointKey& k) const {
    const uint64_t a = static_cast<uint64_t>(k.qx) * 0x9E3779B97F4A7C15ULL;
    const uint64_t b = static_cast<uint64_t>(k.qy) * 0xC2B2AE3D27D4EB4FULL;
    return static_cast<size_t>(a ^ (b >> 1));
  }
};

PointKey Quantize(const geo::EnPoint& p, double snap) {
  return PointKey{static_cast<int64_t>(std::llround(p.x / snap)),
                  static_cast<int64_t>(std::llround(p.y / snap))};
}

// False for a point beyond kMaxDistanceFromOriginM or non-finite.
bool WithinMapRange(const geo::EnPoint& p) {
  return std::hypot(p.x, p.y) <= kMaxDistanceFromOriginM;
}

// One end of one element.
struct ElementEnd {
  size_t element_index;
  bool at_front;  // true when the shared point is geometry.front()
};

}  // namespace

Result<RoadNetwork> PrepareRoadNetwork(
    const std::vector<TrafficElement>& elements,
    const std::vector<FeatureSpec>& features, const geo::LatLon& origin,
    const MapPreparationOptions& options, MapPreparationStats* stats) {
  if (elements.empty()) {
    return Status::InvalidArgument("no traffic elements");
  }
  std::unordered_set<ElementId> seen_ids;
  for (const TrafficElement& el : elements) {
    for (const geo::EnPoint& p : el.geometry.points()) {
      if (!WithinMapRange(p)) {
        return Status::InvalidArgument(StrFormat(
            "element %lld has a vertex (%g, %g) beyond %.0f m of the origin",
            static_cast<long long>(el.id), p.x, p.y,
            kMaxDistanceFromOriginM));
      }
    }
    if (el.geometry.size() < 2) {
      return Status::InvalidArgument(
          StrFormat("element %lld has degenerate geometry",
                    static_cast<long long>(el.id)));
    }
    if (!(el.geometry.Length() > 0.0)) {
      return Status::InvalidArgument(
          StrFormat("element %lld has zero length",
                    static_cast<long long>(el.id)));
    }
    if (!seen_ids.insert(el.id).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate element id %lld",
                    static_cast<long long>(el.id)));
    }
  }

  for (const FeatureSpec& f : features) {
    if (!WithinMapRange(f.position)) {
      return Status::InvalidArgument(StrFormat(
          "feature at (%g, %g) lies beyond %.0f m of the origin",
          f.position.x, f.position.y, kMaxDistanceFromOriginM));
    }
  }

  // 1. Build the endpoint incidence table.
  std::unordered_map<PointKey, std::vector<ElementEnd>, PointKeyHash>
      incidence;
  const double snap = options.endpoint_snap_m;
  for (size_t i = 0; i < elements.size(); ++i) {
    incidence[Quantize(elements[i].geometry.front(), snap)].push_back(
        ElementEnd{i, true});
    incidence[Quantize(elements[i].geometry.back(), snap)].push_back(
        ElementEnd{i, false});
  }

  // Vertex and edge ids are allocated while walking the incidence
  // table, so the walk order must not be the hash order: that would tie
  // the graph numbering (and every golden artifact downstream) to the
  // standard library's hash and load factors. Iterate a sorted key
  // snapshot instead.
  std::vector<PointKey> sorted_keys;
  sorted_keys.reserve(incidence.size());
  for (const auto& [key, ends] : incidence) sorted_keys.push_back(key);
  std::sort(sorted_keys.begin(), sorted_keys.end());

  // 2. Classify endpoints and create graph vertices for junctions and
  //    terminals.
  MapPreparationStats local_stats;
  local_stats.num_elements = static_cast<int>(elements.size());
  RoadNetwork network(origin, options.tiling);
  std::unordered_map<PointKey, VertexId, PointKeyHash> vertex_at;
  for (const PointKey& key : sorted_keys) {
    const std::vector<ElementEnd>& ends = incidence.at(key);
    EndpointType type;
    if (ends.size() >= 3) {
      type = EndpointType::kJunction;
      ++local_stats.num_junctions;
    } else if (ends.size() == 2) {
      type = EndpointType::kIntermediate;
      ++local_stats.num_intermediate_points;
      continue;  // merged through; no vertex
    } else {
      type = EndpointType::kTerminal;
      ++local_stats.num_terminals;
    }
    const ElementEnd& end = ends.front();
    const geo::Polyline& g = elements[end.element_index].geometry;
    const geo::EnPoint pos = end.at_front ? g.front() : g.back();
    vertex_at[key] =
        network.AddVertex(pos, type == EndpointType::kJunction);
  }

  // 3. Walk chains of elements between vertices.
  std::vector<bool> visited(elements.size(), false);

  // Follows the chain that leaves `start_key` through element
  // `first.element_index`, accumulating geometry until reaching a vertex
  // (or closing a loop), then adds the resulting edge.
  const auto walk_chain = [&](const PointKey& start_key,
                              const ElementEnd& first) {
    Edge edge;
    edge.from = vertex_at.at(start_key);
    edge.speed_limit_kmh = std::numeric_limits<double>::infinity();
    edge.functional_class = FunctionalClass::kAccessRoad;
    bool have_forward = false;
    bool have_backward = false;

    size_t cur = first.element_index;
    bool oriented_forward = first.at_front;  // chain follows digitisation?
    while (true) {
      visited[cur] = true;
      const TrafficElement& el = elements[cur];
      geo::Polyline piece =
          oriented_forward ? el.geometry : el.geometry.Reversed();
      edge.geometry.Extend(piece);
      edge.element_ids.push_back(el.id);
      edge.speed_limit_kmh = std::min(edge.speed_limit_kmh, el.speed_limit_kmh);
      edge.functional_class = static_cast<FunctionalClass>(
          std::min(static_cast<int>(edge.functional_class),
                   static_cast<int>(el.functional_class)));
      if (edge.road_name.empty()) edge.road_name = el.road_name;
      const TravelDirection d =
          oriented_forward ? el.direction : ReverseDirection(el.direction);
      if (d == TravelDirection::kForward) have_forward = true;
      if (d == TravelDirection::kBackward) have_backward = true;

      const geo::EnPoint chain_end =
          oriented_forward ? el.geometry.back() : el.geometry.front();
      const PointKey end_key = Quantize(chain_end, snap);
      const auto vit = vertex_at.find(end_key);
      if (vit != vertex_at.end()) {
        edge.to = vit->second;
        break;
      }
      // Intermediate point: continue with the other incident element end.
      // We arrived on element `cur` at the end opposite to our travel
      // orientation; skip exactly that record and take the other.
      const std::vector<ElementEnd>& ends = incidence.at(end_key);
      const ElementEnd* next_end = nullptr;
      bool skipped_arrival = false;
      for (const ElementEnd& cand : ends) {
        if (!skipped_arrival && cand.element_index == cur &&
            cand.at_front == !oriented_forward) {
          skipped_arrival = true;
          continue;
        }
        next_end = &cand;
      }
      const ElementEnd& next = *next_end;
      if (visited[next.element_index]) {
        // Degenerate: a loop whose far side was already consumed. Close
        // the edge at a fresh terminal vertex to keep the graph valid.
        edge.to = network.AddVertex(chain_end, false);
        break;
      }
      cur = next.element_index;
      oriented_forward = next.at_front;
    }

    if (have_forward && have_backward) {
      ++local_stats.num_direction_conflicts;
      edge.direction = TravelDirection::kBoth;
      TAXITRACE_LOG(kWarning)
          << "one-way direction conflict in merged chain starting at element "
          << edge.element_ids.front() << "; treating edge as two-way";
    } else if (have_forward) {
      edge.direction = TravelDirection::kForward;
    } else if (have_backward) {
      edge.direction = TravelDirection::kBackward;
    }
    if (edge.element_ids.size() > 1) ++local_stats.num_multi_element_edges;
    network.AddEdge(std::move(edge));
    ++local_stats.num_edges;
  };

  // Chains anchored at vertices, in sorted key order for the same
  // reason as vertex creation above.
  for (const PointKey& key : sorted_keys) {
    if (!vertex_at.contains(key)) continue;
    for (const ElementEnd& end : incidence.at(key)) {
      if (!visited[end.element_index]) walk_chain(key, end);
    }
  }
  // Remaining elements form pure cycles of intermediate points. Promote
  // one endpoint of each cycle to a vertex and walk.
  for (size_t i = 0; i < elements.size(); ++i) {
    if (visited[i]) continue;
    const PointKey key = Quantize(elements[i].geometry.front(), snap);
    vertex_at[key] = network.AddVertex(elements[i].geometry.front(), false);
    walk_chain(key, ElementEnd{i, true});
  }

  // 4. Attach features.
  for (const FeatureSpec& f : features) {
    network.AddFeature(f.type, f.position, options.feature_attach_radius_m);
  }

  TAXITRACE_RETURN_IF_ERROR(network.Validate());
  if (stats != nullptr) *stats = local_stats;
  return network;
}

std::vector<JunctionPairRow> JunctionPairTable(const RoadNetwork& network) {
  std::vector<JunctionPairRow> rows;
  rows.reserve(network.num_edges());
  const geo::LocalProjection& proj = network.projection();
  network.ForEachEdge([&](const Edge& e) {
    rows.push_back(JunctionPairRow{
        proj.Inverse(network.vertex(e.from).position), e.element_ids,
        proj.Inverse(network.vertex(e.to).position)});
  });
  return rows;
}

}  // namespace roadnet
}  // namespace taxitrace
