// Map preparation (Section IV-A): reconstruct the road-network graph from
// raw traffic elements so every edge is a single chain of elements between
// two junctions.
//
// Endpoints where at least three traffic elements meet are junctions;
// endpoints shared by exactly two elements are intermediate points whose
// elements are merged; endpoints touched by one element are terminal
// (dead-end) vertices. The result is the junction-pair table of Table 1
// and the final graph.

#ifndef TAXITRACE_ROADNET_MAP_PREPARATION_H_
#define TAXITRACE_ROADNET_MAP_PREPARATION_H_

#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/roadnet/road_network.h"

namespace taxitrace {
namespace roadnet {

/// Farthest an element vertex or feature may lie from the origin of the
/// local east/north frame, metres. The frame is equirectangular: its
/// east scale is fixed at the origin's latitude, so east-west distances
/// drift by about tan(lat0) * dy / R. At the paper's 65 deg N that is
/// ~3% 100 km north of the origin, already far coarser than GPS noise,
/// while the study city or a MetroPreset(3) map (~44 km across) fits
/// with room to spare. The bound also keeps every 50 m index cell
/// coordinate far inside int32 and caps the flat index grid a single
/// stray coordinate can inflate.
inline constexpr double kMaxDistanceFromOriginM = 100'000.0;

/// A feature to place on the prepared map.
struct FeatureSpec {
  FeatureType type;
  geo::EnPoint position;
};

/// Options controlling graph reconstruction.
struct MapPreparationOptions {
  /// Endpoints closer than this snap together, metres.
  double endpoint_snap_m = 0.05;
  /// Maximum feature-to-edge attachment distance, metres.
  double feature_attach_radius_m = 40.0;
  /// Tile partition of the produced network (default: single tile, the
  /// historical dense-id layout).
  TilingOptions tiling;
};

/// One row of the junction-pair table (Table 1).
struct JunctionPairRow {
  geo::LatLon junction1;                 ///< Edge start in EPSG:4326.
  std::vector<ElementId> element_ids;    ///< Contributing elements.
  geo::LatLon junction2;                 ///< Edge end in EPSG:4326.
};

/// Classification of a traffic-element endpoint by incidence degree.
enum class EndpointType : unsigned char {
  kTerminal,      ///< One element touches (dead end).
  kIntermediate,  ///< Exactly two elements touch: merge through it.
  kJunction,      ///< Three or more elements touch.
};

/// Statistics reported by the preparation step.
struct MapPreparationStats {
  int num_elements = 0;
  int num_junctions = 0;
  int num_terminals = 0;
  int num_intermediate_points = 0;
  int num_edges = 0;
  int num_multi_element_edges = 0;  ///< Edges merged from >= 2 elements.
  int num_direction_conflicts = 0;  ///< One-way chains with mixed signs.
};

/// Builds the road-network graph from traffic elements and attaches the
/// given features. Fails on empty input, elements with degenerate
/// geometry, duplicate element ids, or an element vertex or feature
/// farther than kMaxDistanceFromOriginM from the origin.
Result<RoadNetwork> PrepareRoadNetwork(
    const std::vector<TrafficElement>& elements,
    const std::vector<FeatureSpec>& features, const geo::LatLon& origin,
    const MapPreparationOptions& options = {},
    MapPreparationStats* stats = nullptr);

/// Renders the junction-pair table (Table 1) for a prepared network.
std::vector<JunctionPairRow> JunctionPairTable(const RoadNetwork& network);

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_MAP_PREPARATION_H_
