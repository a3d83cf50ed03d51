#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/roadnet/map_preparation.h"
#include "taxitrace/roadnet/road_network.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/synth/metro_map_generator.h"

namespace taxitrace {
namespace roadnet {
namespace {

using geo::EnPoint;

const geo::LatLon kOrigin{65.0121, 25.4682};

TrafficElement MakeElement(ElementId id, std::vector<EnPoint> pts,
                           TravelDirection dir = TravelDirection::kBoth,
                           double limit = 40.0) {
  TrafficElement el;
  el.id = id;
  el.geometry = geo::Polyline(std::move(pts));
  el.direction = dir;
  el.speed_limit_kmh = limit;
  return el;
}

// A plus-shaped network: four arms meeting at the origin.
std::vector<TrafficElement> PlusElements() {
  return {
      MakeElement(1, {{0, 0}, {100, 0}}),
      MakeElement(2, {{0, 0}, {-100, 0}}),
      MakeElement(3, {{0, 0}, {0, 100}}),
      MakeElement(4, {{0, 0}, {0, -100}}),
  };
}

TEST(TravelDirectionTest, ReverseDirection) {
  EXPECT_EQ(ReverseDirection(TravelDirection::kForward),
            TravelDirection::kBackward);
  EXPECT_EQ(ReverseDirection(TravelDirection::kBackward),
            TravelDirection::kForward);
  EXPECT_EQ(ReverseDirection(TravelDirection::kBoth),
            TravelDirection::kBoth);
}

TEST(TravelDirectionTest, Names) {
  EXPECT_EQ(TravelDirectionName(TravelDirection::kBoth), "both");
  EXPECT_EQ(TravelDirectionName(TravelDirection::kForward), "forward");
  EXPECT_EQ(FeatureTypeName(FeatureType::kBusStop), "bus_stop");
}

// --- Map preparation ----------------------------------------------------------

TEST(MapPreparationTest, PlusMakesOneJunctionFourEdges) {
  MapPreparationStats stats;
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), {}, kOrigin, {}, &stats).value();
  EXPECT_EQ(stats.num_junctions, 1);
  EXPECT_EQ(stats.num_terminals, 4);
  EXPECT_EQ(stats.num_edges, 4);
  EXPECT_EQ(net.num_vertices(), 5u);
  EXPECT_EQ(net.num_edges(), 4u);
  int junctions = 0;
  net.ForEachVertex(
      [&](const Vertex& v) { junctions += v.is_junction ? 1 : 0; });
  EXPECT_EQ(junctions, 1);
}

TEST(MapPreparationTest, ChainOfElementsMergesIntoOneEdge) {
  // Three collinear elements between two junction-free terminals.
  const std::vector<TrafficElement> elements = {
      MakeElement(10, {{0, 0}, {50, 0}}),
      MakeElement(11, {{50, 0}, {100, 0}}),
      MakeElement(12, {{100, 0}, {150, 0}}),
  };
  MapPreparationStats stats;
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin, {}, &stats).value();
  EXPECT_EQ(stats.num_intermediate_points, 2);
  ASSERT_EQ(net.num_edges(), 1u);
  const Edge& e = net.edge(0);
  EXPECT_EQ(e.element_ids.size(), 3u);
  EXPECT_NEAR(e.length_m, 150.0, 1e-6);
  // Element ids appear in chain order (either direction).
  const bool fwd = e.element_ids == std::vector<ElementId>({10, 11, 12});
  const bool bwd = e.element_ids == std::vector<ElementId>({12, 11, 10});
  EXPECT_TRUE(fwd || bwd);
}

TEST(MapPreparationTest, ReversedDigitisationStillMerges) {
  // Middle element digitised against the chain.
  const std::vector<TrafficElement> elements = {
      MakeElement(10, {{0, 0}, {50, 0}}),
      MakeElement(11, {{100, 0}, {50, 0}}),  // reversed
      MakeElement(12, {{100, 0}, {150, 0}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  ASSERT_EQ(net.num_edges(), 1u);
  EXPECT_NEAR(net.edge(0).length_m, 150.0, 1e-6);
}

TEST(MapPreparationTest, OneWayChainOrientation) {
  // Two one-way elements; the second is digitised backwards, so its
  // constraint must be flipped when merged.
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {50, 0}}, TravelDirection::kForward),
      MakeElement(2, {{100, 0}, {50, 0}}, TravelDirection::kBackward),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  ASSERT_EQ(net.num_edges(), 1u);
  const Edge& e = net.edge(0);
  // The merged edge is one-way from the (0,0) end to the (100,0) end.
  EXPECT_NE(e.direction, TravelDirection::kBoth);
  const EnPoint start = net.vertex(e.from).position;
  if (e.direction == TravelDirection::kForward) {
    EXPECT_NEAR(start.x, 0.0, 1.0);
  } else {
    EXPECT_NEAR(start.x, 100.0, 1.0);
  }
}

TEST(MapPreparationTest, ConflictingOneWaysFallBackToTwoWay) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {50, 0}}, TravelDirection::kForward),
      MakeElement(2, {{50, 0}, {100, 0}}, TravelDirection::kBackward),
  };
  MapPreparationStats stats;
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin, {}, &stats).value();
  EXPECT_EQ(stats.num_direction_conflicts, 1);
  EXPECT_EQ(net.edge(0).direction, TravelDirection::kBoth);
}

TEST(MapPreparationTest, MergedEdgeTakesMinSpeedLimit) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {50, 0}}, TravelDirection::kBoth, 60.0),
      MakeElement(2, {{50, 0}, {100, 0}}, TravelDirection::kBoth, 40.0),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  EXPECT_DOUBLE_EQ(net.edge(0).speed_limit_kmh, 40.0);
}

TEST(MapPreparationTest, PureCycleIsHandled) {
  // A triangle of elements with no junction (all endpoints degree 2).
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}),
      MakeElement(2, {{100, 0}, {50, 80}}),
      MakeElement(3, {{50, 80}, {0, 0}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  EXPECT_GE(net.num_edges(), 1u);
  double total = 0.0;
  net.ForEachEdge([&](const Edge& e) { total += e.length_m; });
  EXPECT_NEAR(total, 100.0 + 2 * std::hypot(50.0, 80.0), 1e-6);
  EXPECT_TRUE(net.Validate().ok());
}

TEST(MapPreparationTest, RejectsEmptyInput) {
  EXPECT_TRUE(PrepareRoadNetwork({}, {}, kOrigin)
                  .status()
                  .IsInvalidArgument());
}

TEST(MapPreparationTest, RejectsDuplicateIds) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {10, 0}}),
      MakeElement(1, {{10, 0}, {20, 0}}),
  };
  EXPECT_TRUE(PrepareRoadNetwork(elements, {}, kOrigin)
                  .status()
                  .IsInvalidArgument());
}

TEST(MapPreparationTest, RejectsDegenerateGeometry) {
  std::vector<TrafficElement> elements = {MakeElement(1, {{0, 0}})};
  EXPECT_FALSE(PrepareRoadNetwork(elements, {}, kOrigin).ok());
  elements = {MakeElement(2, {{0, 0}, {0, 0}})};
  EXPECT_FALSE(PrepareRoadNetwork(elements, {}, kOrigin).ok());
}

TEST(MapPreparationTest, FeatureAttachesToNearestEdge) {
  const std::vector<FeatureSpec> features = {
      {FeatureType::kBusStop, EnPoint{50, 5}},     // near arm 1
      {FeatureType::kTrafficLight, EnPoint{500, 500}},  // out of reach
  };
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), features, kOrigin).value();
  EXPECT_EQ(net.features().size(), 2u);
  int attached = 0;
  net.ForEachEdge([&](const Edge& e) {
    attached += static_cast<int>(e.feature_ids.size());
  });
  EXPECT_EQ(attached, 1);  // the far light attaches nowhere
  EXPECT_EQ(net.CountFeatures(FeatureType::kBusStop), 1);
  EXPECT_EQ(net.CountFeatures(FeatureType::kTrafficLight), 1);
}

TEST(MapPreparationTest, JunctionPairTableMatchesEdges) {
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), {}, kOrigin).value();
  const std::vector<JunctionPairRow> rows = JunctionPairTable(net);
  ASSERT_EQ(rows.size(), net.num_edges());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Edge& e = net.edge(net.EdgeIdAt(i));
    EXPECT_EQ(rows[i].element_ids, e.element_ids);
    const EnPoint j1 = net.projection().Forward(rows[i].junction1);
    EXPECT_NEAR(geo::Distance(j1, net.vertex(e.from).position), 0.0,
                0.5);
  }
}

// --- RoadNetwork accessors -----------------------------------------------------

TEST(RoadNetworkTest, OppositeAndTraverse) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}, TravelDirection::kForward),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Edge& e = net.edge(0);
  EXPECT_EQ(net.Opposite(e.id, e.from), e.to);
  EXPECT_EQ(net.Opposite(e.id, e.to), e.from);
  EXPECT_NE(net.CanTraverse(e.id, true), net.CanTraverse(e.id, false));
}

TEST(RoadNetworkTest, PointAt) {
  const RoadNetwork net =
      PrepareRoadNetwork({MakeElement(1, {{0, 0}, {100, 0}})}, {}, kOrigin)
          .value();
  const Edge& e = net.edge(0);
  const EnPoint from_pos = net.vertex(e.from).position;
  const EnPoint mid = net.PointAt(EdgePosition{e.id, 50.0});
  EXPECT_NEAR(geo::Distance(from_pos, mid), 50.0, 1e-6);
}

TEST(RoadNetworkTest, IncidentEdges) {
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), {}, kOrigin).value();
  net.ForEachVertex([&](const Vertex& v) {
    const size_t expected = v.is_junction ? 4u : 1u;
    EXPECT_EQ(net.IncidentEdges(v.id).size(), expected);
  });
}

// --- Spatial index ---------------------------------------------------------------

class SpatialIndexTest : public testing::Test {
 protected:
  SpatialIndexTest()
      : net_(PrepareRoadNetwork(PlusElements(), {}, kOrigin).value()),
        index_(&net_) {}
  RoadNetwork net_;
  SpatialIndex index_;
};

TEST_F(SpatialIndexTest, NearbyFindsEdgesWithinRadius) {
  const std::vector<EdgeCandidate> found =
      index_.Nearby(EnPoint{50, 5}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].projection.distance, 5.0, 1e-9);
}

TEST_F(SpatialIndexTest, NearbyAtJunctionSeesAllArms) {
  const std::vector<EdgeCandidate> found =
      index_.Nearby(EnPoint{2, 2}, 10.0);
  EXPECT_EQ(found.size(), 4u);
  // Sorted by ascending distance.
  for (size_t i = 1; i < found.size(); ++i) {
    EXPECT_LE(found[i - 1].projection.distance,
              found[i].projection.distance);
  }
}

TEST_F(SpatialIndexTest, NearbyEmptyWhenFar) {
  EXPECT_TRUE(index_.Nearby(EnPoint{500, 500}, 30.0).empty());
}

TEST_F(SpatialIndexTest, NearestExpandsSearch) {
  const auto hit = index_.Nearest(EnPoint{300, 40}, 500.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->projection.distance,
              geo::Distance(EnPoint{300, 40}, EnPoint{100, 0}), 1e-6);
}

TEST_F(SpatialIndexTest, NearestRespectsCap) {
  EXPECT_FALSE(index_.Nearest(EnPoint{5000, 5000}, 100.0).has_value());
}

TEST_F(SpatialIndexTest, CountsProbeWork) {
  (void)index_.Nearby(EnPoint{2, 2}, 10.0);
  (void)index_.Nearby(EnPoint{500, 500}, 30.0);
  const SpatialIndexStats stats = index_.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_GT(stats.cells_probed, 0);
  EXPECT_GE(stats.candidates, 4);  // the four arms at the junction
  EXPECT_EQ(stats.hits, 4);        // the far query returned nothing
  EXPECT_EQ(stats.empty_geometry_edges, 0);
}

// Regression: the index build walked geometry segments (i, i+1), so an
// edge whose polyline had fewer than two points was never inserted into
// any cell and could not be found by Nearby/Nearest at all. A
// single-point geometry is now indexed at its lone point; an empty
// geometry has no location to index and is dropped with a counted
// reason instead of silently.
TEST(SpatialIndexDegenerateTest, SinglePointGeometryIsFindable) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({200, 0}, false);
  Edge normal;
  normal.from = a;
  normal.to = b;
  normal.geometry = geo::Polyline({{0, 0}, {200, 0}});
  net.AddEdge(std::move(normal));

  const VertexId c = net.AddVertex({500, 500}, false);
  Edge lone;
  lone.from = c;
  lone.to = c;
  lone.geometry = geo::Polyline({{500, 500}});
  const EdgeId lone_id = net.AddEdge(std::move(lone));

  const SpatialIndex index(&net);
  const std::vector<EdgeCandidate> found =
      index.Nearby(EnPoint{497, 496}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge, lone_id);
  EXPECT_NEAR(found[0].projection.distance, 5.0, 1e-9);
  EXPECT_EQ(index.stats().empty_geometry_edges, 0);

  const auto nearest = index.Nearest(EnPoint{520, 500}, 100.0);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->edge, lone_id);
}

TEST(SpatialIndexDegenerateTest, EmptyGeometryIsDroppedWithReason) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({100, 0}, false);
  Edge normal;
  normal.from = a;
  normal.to = b;
  normal.geometry = geo::Polyline({{0, 0}, {100, 0}});
  const EdgeId normal_id = net.AddEdge(std::move(normal));
  Edge hollow;
  hollow.from = a;
  hollow.to = b;
  hollow.geometry = geo::Polyline();
  net.AddEdge(std::move(hollow));

  const SpatialIndex index(&net);
  EXPECT_EQ(index.stats().empty_geometry_edges, 1);
  // The well-formed edge is unaffected.
  const std::vector<EdgeCandidate> found =
      index.Nearby(EnPoint{50, 2}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge, normal_id);
}

// Equivalence at metro scale: ~2,000 seeded probes over MetroPreset(1),
// each answered by Nearby and by a scan over every edge. The scan's
// bounding-box reject keeps a 1 m margin, so it never drops an edge
// the projection would keep.
struct MetroProbeTotals {
  SpatialIndexStats stats;
  size_t memory_bytes = 0;
};

void ProbeMetroIndex(double tile_size_m, MetroProbeTotals* totals) {
  synth::MetroMapOptions opt = synth::MetroPreset(1);
  opt.tiling.tile_size_m = tile_size_m;
  const synth::MetroMap map = synth::GenerateMetroMap(opt).value();
  const RoadNetwork& net = map.network;
  const SpatialIndex index(&net);
  std::vector<const Edge*> edges;
  std::vector<geo::Bbox> bounds;
  net.ForEachEdge([&](const Edge& e) {
    edges.push_back(&e);
    bounds.push_back(e.geometry.Bounds());
  });
  const geo::Bbox box = net.Bounds().Inflated(300.0);
  Rng rng(20261017);
  for (int i = 0; i < 2000; ++i) {
    const EnPoint p{rng.Uniform(box.min_x, box.max_x),
                    rng.Uniform(box.min_y, box.max_y)};
    const double r = rng.Uniform(0.0, 250.0);
    std::vector<EdgeCandidate> expect;
    for (size_t k = 0; k < edges.size(); ++k) {
      const geo::Bbox& b = bounds[k];
      const double dx = std::max({b.min_x - p.x, 0.0, p.x - b.max_x});
      const double dy = std::max({b.min_y - p.y, 0.0, p.y - b.max_y});
      if (dx * dx + dy * dy > (r + 1.0) * (r + 1.0)) continue;
      const geo::PolylineProjection proj = edges[k]->geometry.Project(p);
      if (proj.distance <= r) expect.push_back({edges[k]->id, proj});
    }
    std::sort(expect.begin(), expect.end(),
              [](const EdgeCandidate& a, const EdgeCandidate& b) {
                if (a.projection.distance != b.projection.distance) {
                  return a.projection.distance < b.projection.distance;
                }
                return a.edge < b.edge;
              });
    const std::vector<EdgeCandidate> got = index.Nearby(p, r);
    ASSERT_EQ(got.size(), expect.size()) << "probe " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].edge, expect[j].edge) << "probe " << i;
      ASSERT_EQ(got[j].projection.distance, expect[j].projection.distance)
          << "probe " << i;
    }
  }
  totals->stats = index.stats();
  totals->memory_bytes = index.ApproxMemoryBytes();
}

// The constants below were captured from the hash-map index build that
// the counting-sort build replaced, on the same probes (gcc 12,
// libstdc++, x86-64). The stats pin the candidate and hit sets cell by
// cell; ApproxMemoryBytes counts every cell_edges entry, so a
// duplicated or missing cell entry changes it.
TEST(SpatialIndexMetroTest, TiledMatchesScanAndPinnedTotals) {
  MetroProbeTotals t;
  ASSERT_NO_FATAL_FAILURE(ProbeMetroIndex(2000.0, &t));
  EXPECT_EQ(t.stats.queries, 2000);
  EXPECT_EQ(t.stats.cells_probed, 175128);
  EXPECT_EQ(t.stats.tiles_probed, 2819);
  EXPECT_EQ(t.stats.candidates, 46724);
  EXPECT_EQ(t.stats.hits, 15952);
  EXPECT_EQ(t.memory_bytes, 1195480u);
}

TEST(SpatialIndexMetroTest, FlatMatchesScanAndPinnedTotals) {
  MetroProbeTotals t;
  ASSERT_NO_FATAL_FAILURE(ProbeMetroIndex(0.0, &t));
  EXPECT_EQ(t.stats.queries, 2000);
  EXPECT_EQ(t.stats.cells_probed, 175128);
  EXPECT_EQ(t.stats.tiles_probed, 2000);
  EXPECT_EQ(t.stats.candidates, 46724);
  EXPECT_EQ(t.stats.hits, 15952);
  EXPECT_EQ(t.memory_bytes, 1188928u);
}

// --- Router -----------------------------------------------------------------------

// A 3x3 grid network with 100 m spacing.
std::vector<TrafficElement> GridElements() {
  std::vector<TrafficElement> elements;
  ElementId id = 1;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      const EnPoint p{i * 100.0, j * 100.0};
      if (i < 2) {
        elements.push_back(
            MakeElement(id++, {p, EnPoint{(i + 1) * 100.0, j * 100.0}}));
      }
      if (j < 2) {
        elements.push_back(
            MakeElement(id++, {p, EnPoint{i * 100.0, (j + 1) * 100.0}}));
      }
    }
  }
  return elements;
}

class RouterTest : public testing::Test {
 protected:
  RouterTest()
      : net_(PrepareRoadNetwork(GridElements(), {}, kOrigin).value()),
        router_(&net_) {}

  VertexId VertexAt(const EnPoint& p) const {
    VertexId found = kInvalidVertex;
    net_.ForEachVertex([&](const Vertex& v) {
      if (found == kInvalidVertex && geo::Distance(v.position, p) < 1.0) {
        found = v.id;
      }
    });
    return found;
  }

  RoadNetwork net_;
  Router router_;
};

// Note: the 3x3 grid's corner points have degree 2, so map preparation
// merges them into L-shaped edges; only the edge midpoints and the
// centre ((100,100)) are graph vertices.

TEST_F(RouterTest, StraightLineIsShortest) {
  const Result<Path> path =
      router_.ShortestPath(VertexAt({100, 0}), VertexAt({100, 200}));
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 200.0, 1e-6);
  EXPECT_EQ(path->steps.size(), 2u);
}

TEST_F(RouterTest, ManhattanDistanceAcrossGrid) {
  const Result<Path> path =
      router_.ShortestPath(VertexAt({100, 0}), VertexAt({0, 100}));
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 200.0, 1e-6);
  // Geometry runs continuously from source to destination.
  EXPECT_NEAR(geo::Distance(path->geometry.front(),
                            net_.vertex(VertexAt({100, 0})).position),
              0.0, 1.0);
  EXPECT_NEAR(geo::Distance(path->geometry.back(),
                            net_.vertex(VertexAt({0, 100})).position),
              0.0, 1.0);
  EXPECT_NEAR(path->geometry.Length(), path->length_m, 1e-6);
}

TEST_F(RouterTest, SameVertexYieldsZeroPath) {
  const Result<Path> path =
      router_.ShortestPath(VertexAt({100, 100}), VertexAt({100, 100}));
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->length_m, 0.0);
  EXPECT_TRUE(path->steps.empty());
}

TEST_F(RouterTest, InvalidVertexRejected) {
  EXPECT_TRUE(router_.ShortestPath(-1, 0).status().IsInvalidArgument());
  EXPECT_TRUE(router_.ShortestPath(0, 9999).status().IsInvalidArgument());
}

TEST_F(RouterTest, CostMultiplierChangesRoute) {
  // Make the direct north-south street prohibitively expensive; the
  // route must detour but report its true geometric length.
  std::vector<double> mult(net_.num_edges(), 1.0);
  const Result<Path> direct =
      router_.ShortestPath(VertexAt({100, 0}), VertexAt({100, 200}));
  ASSERT_TRUE(direct.ok());
  for (const PathStep& s : direct->steps) {
    mult[net_.EdgeOrdinal(s.edge)] = 10.0;
  }
  const Result<Path> detour = router_.ShortestPath(
      VertexAt({100, 0}), VertexAt({100, 200}), &mult);
  ASSERT_TRUE(detour.ok());
  EXPECT_NEAR(detour->length_m, 400.0, 1e-6);  // around the block
}

TEST_F(RouterTest, MultiplierSizeMismatchRejected) {
  std::vector<double> bad(3, 1.0);
  EXPECT_TRUE(router_.ShortestPath(0, 1, &bad)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RouterTest, PositionToPositionSameEdge) {
  const Edge& e = net_.edge(0);
  const Result<Path> path = router_.ShortestPathBetween(
      EdgePosition{e.id, 10.0}, EdgePosition{e.id, 60.0});
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 50.0, 1e-6);
  ASSERT_EQ(path->steps.size(), 1u);
  EXPECT_TRUE(path->steps[0].forward);
}

TEST_F(RouterTest, PositionToPositionBackwardOnTwoWayEdge) {
  const Edge& e = net_.edge(0);
  const Result<Path> path = router_.ShortestPathBetween(
      EdgePosition{e.id, 60.0}, EdgePosition{e.id, 10.0});
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 50.0, 1e-6);
  EXPECT_FALSE(path->steps[0].forward);
}

TEST_F(RouterTest, PositionToPositionAcrossGraph) {
  // From the middle of one edge to the middle of a distant edge.
  const EdgePosition from{net_.edge(0).id, 50.0};
  EdgeId far_edge = kInvalidEdge;
  net_.ForEachEdge([&](const Edge& e) {
    const EnPoint mid = e.geometry.Interpolate(e.length_m / 2);
    if (far_edge == kInvalidEdge &&
        geo::Distance(mid, net_.edge(0).geometry.Interpolate(50.0)) >
            150.0) {
      far_edge = e.id;
    }
  });
  ASSERT_NE(far_edge, kInvalidEdge);
  const Result<Path> path =
      router_.ShortestPathBetween(from, EdgePosition{far_edge, 30.0});
  ASSERT_TRUE(path.ok());
  EXPECT_GT(path->length_m, 100.0);
  EXPECT_NEAR(path->geometry.Length(), path->length_m, 1e-6);
}

TEST_F(RouterTest, NetworkDistanceMatchesPathLength) {
  const EdgePosition a{net_.edge(0).id, 20.0};
  const EdgePosition b{net_.edge(3).id, 40.0};
  const Result<Path> path = router_.ShortestPathBetween(a, b);
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(router_.NetworkDistance(a, b), path->length_m, 1e-9);
}

TEST(RouterOneWayTest, OneWayForcesDetour) {
  // Two parallel streets connected at both ends; the direct one is
  // one-way against the travel direction. Stub elements keep the loop
  // corners at degree >= 3 so they stay graph vertices.
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}, TravelDirection::kBackward),
      MakeElement(2, {{0, 0}, {0, 50}}),
      MakeElement(3, {{0, 50}, {100, 50}}),
      MakeElement(4, {{100, 50}, {100, 0}}),
      MakeElement(5, {{0, 0}, {-50, 0}}),
      MakeElement(6, {{100, 0}, {150, 0}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Router router(&net);
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  net.ForEachVertex([&](const Vertex& v) {
    if (geo::Distance(v.position, {0, 0}) < 1.0) a = v.id;
    if (geo::Distance(v.position, {100, 0}) < 1.0) b = v.id;
  });
  const Result<Path> forward = router.ShortestPath(a, b);
  ASSERT_TRUE(forward.ok());
  EXPECT_NEAR(forward->length_m, 200.0, 1e-6);  // detour via (0,50)
  const Result<Path> back = router.ShortestPath(b, a);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->length_m, 100.0, 1e-6);  // direct, allowed direction
}

TEST(RouterDisconnectedTest, UnreachableIsNotFound) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}),
      MakeElement(2, {{1000, 1000}, {1100, 1000}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Router router(&net);
  const Result<Path> path = router.ShortestPath(0, 2);
  // Vertices 0 and 2 may or may not be on the same component depending
  // on creation order, so locate definitely-disconnected endpoints.
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  net.ForEachVertex([&](const Vertex& v) {
    if (v.position.x < 500) a = v.id;
    if (v.position.x > 500) b = v.id;
  });
  EXPECT_TRUE(router.ShortestPath(a, b).status().IsNotFound());
  (void)path;
}

TEST(RouterOneWayTest, PositionRoutingRespectsOneWay) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}, TravelDirection::kForward),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Router router(&net);
  const Edge& e = net.edge(0);
  // Forward travel is fine; backward on the isolated one-way edge is
  // impossible.
  const double arc0 = e.direction == TravelDirection::kForward ? 10.0 : 90.0;
  const double arc1 = e.direction == TravelDirection::kForward ? 90.0 : 10.0;
  EXPECT_TRUE(router
                  .ShortestPathBetween(EdgePosition{e.id, arc0},
                                       EdgePosition{e.id, arc1})
                  .ok());
  EXPECT_TRUE(router
                  .ShortestPathBetween(EdgePosition{e.id, arc1},
                                       EdgePosition{e.id, arc0})
                  .status()
                  .IsNotFound());
}

// --- CSR adjacency ----------------------------------------------------------

// OutArcs is a flattened mirror of IncidentEdges: same edges in the
// same order, with head/length/traversability/orientation agreeing
// with the Edge records they were precomputed from.
TEST(RoadNetworkCsrTest, OutArcsMirrorsIncidentEdges) {
  const RoadNetwork net =
      PrepareRoadNetwork(GridElements(), {}, kOrigin).value();
  net.ForEachVertex([&](const Vertex& v) {
    const std::vector<EdgeId>& incident = net.IncidentEdges(v.id);
    const std::span<const HalfEdge> arcs = net.OutArcs(v.id);
    ASSERT_EQ(incident.size(), arcs.size()) << "vertex " << v.id;
    for (size_t k = 0; k < arcs.size(); ++k) {
      const HalfEdge& arc = arcs[k];
      EXPECT_EQ(arc.edge, incident[k]) << "vertex " << v.id;
      const Edge& e = net.edge(arc.edge);
      EXPECT_EQ(arc.forward, e.from == v.id);
      EXPECT_EQ(arc.head, net.Opposite(arc.edge, v.id));
      EXPECT_EQ(arc.length_m, e.length_m);
      EXPECT_EQ(arc.traversable_out, net.CanTraverse(arc.edge, arc.forward));
      EXPECT_EQ(arc.traversable_in, net.CanTraverse(arc.edge, !arc.forward));
    }
  });
}

// The CSR cache follows builder growth: arcs added after a first read
// appear on the next read.
TEST(RoadNetworkCsrTest, OutArcsFollowsBuilderGrowth) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({100, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {100, 0}});
  e.length_m = 100.0;
  net.AddEdge(std::move(e));
  EXPECT_EQ(net.OutArcs(a).size(), 1u);

  const VertexId c = net.AddVertex({0, 100}, false);
  Edge e2;
  e2.from = a;
  e2.to = c;
  e2.geometry = geo::Polyline({{0, 0}, {0, 100}});
  e2.length_m = 100.0;
  net.AddEdge(std::move(e2));
  EXPECT_EQ(net.OutArcs(a).size(), 2u);
  EXPECT_EQ(net.OutArcs(c).size(), 1u);
  EXPECT_EQ(net.OutArcs(c)[0].head, a);
}

// --- Seed dedupe ------------------------------------------------------------

// Regression: a loop edge hands Search two seeds naming the same vertex
// (both endpoints are the hub). The seed phase must keep the cheaper
// cost and push one heap entry — with the old duplicate push the search
// still answered correctly but popped a guaranteed-stale entry, so
// heap_pops exceeded settled_vertices on this two-vertex graph.
TEST(RouterSeedDedupeTest, CoincidentSeedsOnLoopEdge) {
  RoadNetwork net(kOrigin);
  const VertexId hub = net.AddVertex({0, 0}, true);
  const VertexId out = net.AddVertex({100, 0}, false);
  Edge loop;
  loop.from = hub;
  loop.to = hub;
  loop.geometry =
      geo::Polyline({{0, 0}, {50, 50}, {0, 100}, {-50, 50}, {0, 0}});
  loop.length_m = loop.geometry.Length();
  const EdgeId loop_id = net.AddEdge(std::move(loop));
  Edge spur;
  spur.from = hub;
  spur.to = out;
  spur.geometry = geo::Polyline({{0, 0}, {100, 0}});
  spur.length_m = 100.0;
  const EdgeId spur_id = net.AddEdge(std::move(spur));

  const Router router(&net);
  const double loop_len = net.edge(loop_id).length_m;
  // Start 30 m into the loop: leaving backwards (30 m to the hub) beats
  // leaving forwards (loop_len - 30 m), and the kept seed must be the
  // cheaper of the two coincident ones.
  const Result<Path> path = router.ShortestPathBetween(
      EdgePosition{loop_id, 30.0}, EdgePosition{spur_id, 40.0});
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 30.0 + 40.0, 1e-9);
  EXPECT_GT(loop_len - 30.0, 30.0);  // the discarded seed was dearer

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.searches, 1);
  // No stale pops on this graph once the duplicate seed is gone.
  EXPECT_EQ(stats.heap_pops, stats.settled_vertices);
}

TEST(RoadNetworkValidateTest, DetectsBadFeatureReference) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({10, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {10, 0}});
  e.feature_ids.push_back(99);  // dangling
  net.AddEdge(std::move(e));
  EXPECT_TRUE(net.Validate().IsCorruption());
}

TEST(RoadNetworkValidateTest, DetectsGeometryVertexMismatch) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({10, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {50, 50}});  // wrong far end
  net.AddEdge(std::move(e));
  EXPECT_TRUE(net.Validate().IsCorruption());
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
