// Tiled graph storage (roadnet/tile.h + road_network.h): id packing
// round trips, tile assignment of negative/boundary coordinates,
// cross-tile boundary-arc invariants, and byte-identical routing
// between a tiled map and its flat single-tile twin.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "taxitrace/common/hash.h"
#include "taxitrace/common/random.h"
#include "taxitrace/roadnet/road_network.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/tile.h"
#include "taxitrace/synth/metro_map_generator.h"

namespace taxitrace {
namespace roadnet {
namespace {

using geo::EnPoint;

// --- Id packing round trips -------------------------------------------------

TEST(TilePackingTest, RoundTripsAcrossTheWholeRange) {
  Rng rng(91);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto tile =
        static_cast<TileIndex>(rng.UniformInt(0, kMaxTiles - 1));
    const auto local =
        static_cast<int32_t>(rng.UniformInt(0, kMaxLocalId));
    const int32_t packed = PackTiledId(tile, local);
    EXPECT_GE(packed, 0);
    EXPECT_EQ(TileIndexOf(packed), tile);
    EXPECT_EQ(LocalIdOf(packed), local);
  }
}

TEST(TilePackingTest, BoundaryValues) {
  // Extremes of both fields survive the round trip; tile 0 is the
  // identity so packed == local there.
  EXPECT_EQ(PackTiledId(0, 0), 0);
  EXPECT_EQ(PackTiledId(0, kMaxLocalId), kMaxLocalId);
  EXPECT_EQ(TileIndexOf(kMaxLocalId), 0);
  const int32_t top = PackTiledId(kMaxTiles - 1, kMaxLocalId);
  EXPECT_GT(top, 0);  // sign bit untouched: -1 stays the invalid id
  EXPECT_EQ(TileIndexOf(top), kMaxTiles - 1);
  EXPECT_EQ(LocalIdOf(top), kMaxLocalId);
  for (int32_t local = 0; local <= 5; ++local) {
    EXPECT_EQ(PackTiledId(0, local), local);
  }
}

TEST(TilePackingTest, OrdinalOrderMatchesPackedIdOrder) {
  // Tile-major enumeration == ascending packed ids: higher tile beats
  // any local ordinal.
  EXPECT_LT(PackTiledId(0, kMaxLocalId), PackTiledId(1, 0));
  EXPECT_LT(PackTiledId(3, 17), PackTiledId(3, 18));
  EXPECT_LT(PackTiledId(3, kMaxLocalId), PackTiledId(4, 0));
}

// --- Tile coordinates of points --------------------------------------------

TEST(TileCoordTest, NegativeAndBoundaryCoordinates) {
  const double size = 100.0;
  // Interior points.
  EXPECT_EQ(TileCoordOfPoint({50, 50}, size), (TileCoord{0, 0}));
  EXPECT_EQ(TileCoordOfPoint({150, 250}, size), (TileCoord{1, 2}));
  // Negative points floor away from zero: -1 m is tile -1, not 0.
  EXPECT_EQ(TileCoordOfPoint({-1, -1}, size), (TileCoord{-1, -1}));
  EXPECT_EQ(TileCoordOfPoint({-100, -1}, size), (TileCoord{-1, -1}));
  EXPECT_EQ(TileCoordOfPoint({-101, 0}, size), (TileCoord{-2, 0}));
  // Boundary points belong to the tile they open (floor semantics).
  EXPECT_EQ(TileCoordOfPoint({100, 0}, size), (TileCoord{1, 0}));
  EXPECT_EQ(TileCoordOfPoint({0, 200}, size), (TileCoord{0, 2}));
  EXPECT_EQ(TileCoordOfPoint({-100, -200}, size), (TileCoord{-1, -2}));
}

TEST(TileCoordTest, VerticesLandInTheirAssignedTile) {
  // Vertices spread over all four quadrants, including exact tile
  // boundaries, end up in tiles whose recorded coord matches the
  // point's tile coord.
  const geo::LatLon origin{65.0, 25.0};
  RoadNetwork net(origin, TilingOptions{100.0});
  const std::vector<EnPoint> points = {
      {0, 0},     {50, 50},    {-50, -50},  {99.99, 99.99}, {100, 100},
      {-100, -1}, {-101, -99}, {250, -250}, {-0.01, 0.01},  {0, -300},
  };
  for (const EnPoint& p : points) {
    const VertexId v = net.AddVertex(p, false);
    const TileCoord expect = TileCoordOfPoint(p, 100.0);
    const GraphTile& tile = net.tile(TileIndexOf(v));
    EXPECT_EQ(tile.coord, expect) << "point (" << p.x << ", " << p.y << ")";
    EXPECT_EQ(net.TileAt(p), TileIndexOf(v));
  }
  // Ids pack (tile, local) and resolve back to the right vertex.
  net.ForEachVertex([&](const Vertex& v) {
    EXPECT_EQ(net.vertex(v.id).id, v.id);
    EXPECT_EQ(net.VertexIdAt(net.VertexOrdinal(v.id)), v.id);
  });
}

TEST(TileCoordTest, SingleTileMapsKeepDenseIds) {
  const geo::LatLon origin{65.0, 25.0};
  RoadNetwork net(origin);  // tile_size 0: historical flat layout
  for (int i = 0; i < 100; ++i) {
    const VertexId v = net.AddVertex(
        {static_cast<double>(i * 37 % 1000) - 500.0,
         static_cast<double>(i * 91 % 1000) - 500.0},
        false);
    EXPECT_EQ(v, i);  // packed id == dense id, bit for bit
    EXPECT_EQ(net.VertexOrdinal(v), static_cast<size_t>(i));
  }
  EXPECT_EQ(net.num_tiles(), 1u);
}

// --- Ordinal maps under interleaved building --------------------------------

// Checks VertexOrdinal/VertexIdAt and EdgeOrdinal/EdgeIdAt against the
// position of every vertex and edge in ForEachVertex/ForEachEdge order.
// `edges_first` flips which table is looked up first, so each table is
// read both right after a mutation and after the other table refreshed.
void ExpectOrdinalsMatchEnumeration(const RoadNetwork& net, bool edges_first,
                                    int step) {
  const auto check_vertices = [&] {
    size_t ordinal = 0;
    net.ForEachVertex([&](const Vertex& v) {
      EXPECT_EQ(net.VertexOrdinal(v.id), ordinal) << "step " << step;
      EXPECT_EQ(net.VertexIdAt(ordinal), v.id) << "step " << step;
      ++ordinal;
    });
    EXPECT_EQ(ordinal, net.num_vertices()) << "step " << step;
  };
  const auto check_edges = [&] {
    size_t ordinal = 0;
    net.ForEachEdge([&](const Edge& e) {
      EXPECT_EQ(net.EdgeOrdinal(e.id), ordinal) << "step " << step;
      EXPECT_EQ(net.EdgeIdAt(ordinal), e.id) << "step " << step;
      ++ordinal;
    });
    EXPECT_EQ(ordinal, net.num_edges()) << "step " << step;
  };
  if (edges_first) {
    check_edges();
    check_vertices();
  } else {
    check_vertices();
    check_edges();
  }
}

TEST(OrdinalMapTest, ExactUnderInterleavedBuilding) {
  // 100 m tiles. Mutations land out of tile order, so an addition to an
  // earlier tile shifts the ordinals of every later tile, and one vertex
  // opens a new tile after edges already exist.
  RoadNetwork net(geo::LatLon{65.0, 25.0}, TilingOptions{100.0});
  std::vector<VertexId> vs;
  int step = 0;
  const auto add_vertex = [&](EnPoint p) {
    vs.push_back(net.AddVertex(p, false));
    ExpectOrdinalsMatchEnumeration(net, step % 2 == 0, step);
    ++step;
  };
  const auto add_edge = [&](size_t a, size_t b) {
    Edge e;
    e.from = vs[a];
    e.to = vs[b];
    e.geometry = geo::Polyline(
        {net.vertex(vs[a]).position, net.vertex(vs[b]).position});
    net.AddEdge(std::move(e));
    ExpectOrdinalsMatchEnumeration(net, step % 2 == 0, step);
    ++step;
  };
  add_vertex({10, 10});    // 0: tile (0, 0)
  add_vertex({150, 10});   // 1: tile (1, 0)
  add_edge(1, 0);          // edge in tile (1, 0)
  add_edge(0, 1);          // edge in tile (0, 0) shifts tile (1, 0)'s
  add_vertex({160, 20});   // 2: tile (1, 0)
  add_vertex({20, 30});    // 3: tile (0, 0) shifts tile (1, 0)'s
  add_edge(2, 1);
  add_edge(3, 0);
  add_vertex({-50, 250});  // 4: opens tile (-1, 2) mid-build
  add_edge(1, 4);          // stored in tile (1, 0)
  add_edge(4, 3);          // first edge of the new tile
  add_edge(0, 4);          // tile (0, 0) again: shifts both later tiles
  add_vertex({-60, 260});  // 5: tile (-1, 2)
  add_edge(5, 4);
  ASSERT_EQ(net.num_tiles(), 3u);
  EXPECT_EQ(net.num_vertices(), 6u);
  EXPECT_EQ(net.num_edges(), 8u);
}

// --- Boundary-arc invariants ------------------------------------------------

class BoundaryArcTest : public testing::Test {
 protected:
  BoundaryArcTest()
      : map_(synth::GenerateMetroMap(synth::MetroPreset(0)).value()) {}
  synth::MetroMap map_;
};

TEST_F(BoundaryArcTest, MapIsGenuinelyMultiTile) {
  ASSERT_GT(map_.network.num_tiles(), 4u);
  size_t boundary_total = 0;
  for (size_t t = 0; t < map_.network.num_tiles(); ++t) {
    boundary_total +=
        map_.network.BoundaryArcs(static_cast<TileIndex>(t)).size();
  }
  ASSERT_GT(boundary_total, 0u);
}

// Every CSR arc whose head lies in another tile appears in its tile's
// boundary table, and nothing else does.
TEST_F(BoundaryArcTest, BoundaryTableMatchesCrossTileArcs) {
  const RoadNetwork& net = map_.network;
  for (size_t t = 0; t < net.num_tiles(); ++t) {
    const auto tidx = static_cast<TileIndex>(t);
    std::vector<BoundaryArc> expect;
    for (const Vertex& v : net.tile(tidx).vertices) {
      for (const HalfEdge& arc : net.OutArcs(v.id)) {
        if (TileIndexOf(arc.head) != tidx) {
          expect.push_back(BoundaryArc{v.id, arc.head, arc.edge});
        }
      }
    }
    const std::span<const BoundaryArc> got = net.BoundaryArcs(tidx);
    ASSERT_EQ(got.size(), expect.size()) << "tile " << t;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].from, expect[i].from);
      EXPECT_EQ(got[i].head, expect[i].head);
      EXPECT_EQ(got[i].edge, expect[i].edge);
    }
  }
}

// A boundary arc is visible from both sides with symmetric
// traversability: if tile A can leave to tile B over edge e, tile B's
// adjacency holds the mirror arc whose in/out flags are swapped.
TEST_F(BoundaryArcTest, TraversabilitySymmetricFromBothTiles) {
  const RoadNetwork& net = map_.network;
  int checked = 0;
  for (size_t t = 0; t < net.num_tiles(); ++t) {
    for (const BoundaryArc& b : net.BoundaryArcs(static_cast<TileIndex>(t))) {
      // The forward view from the owning tile.
      const HalfEdge* out = nullptr;
      for (const HalfEdge& arc : net.OutArcs(b.from)) {
        if (arc.edge == b.edge && arc.head == b.head) out = &arc;
      }
      ASSERT_NE(out, nullptr);
      // The mirror view from the head's tile.
      const HalfEdge* back = nullptr;
      for (const HalfEdge& arc : net.OutArcs(b.head)) {
        if (arc.edge == b.edge && arc.head == b.from) back = &arc;
      }
      ASSERT_NE(back, nullptr)
          << "edge " << b.edge << " invisible from tile of vertex " << b.head;
      EXPECT_EQ(out->traversable_out, back->traversable_in);
      EXPECT_EQ(out->traversable_in, back->traversable_out);
      EXPECT_EQ(out->forward, !back->forward);
      EXPECT_EQ(out->length_m, back->length_m);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// --- Tiled vs flat router equivalence ---------------------------------------

// The same metro generated tiled (2 km tiles) and flat (single tile)
// must route identically: same reachability, same lengths, and the
// same step sequences once ids are translated through the position
// correspondence. Catches any tiling leak into search order.
TEST(TiledVsFlatRouterTest, IdenticalPathsOnRandomOdPairs) {
  synth::MetroMapOptions options = synth::MetroPreset(1);
  const synth::MetroMap tiled = synth::GenerateMetroMap(options).value();
  options.tiling.tile_size_m = 0.0;
  const synth::MetroMap flat = synth::GenerateMetroMap(options).value();

  const RoadNetwork& tnet = tiled.network;
  const RoadNetwork& fnet = flat.network;
  ASSERT_EQ(tnet.num_vertices(), fnet.num_vertices());
  ASSERT_EQ(tnet.num_edges(), fnet.num_edges());
  ASSERT_GT(tnet.num_tiles(), 1u);
  ASSERT_EQ(fnet.num_tiles(), 1u);

  // The two maps hold the same vertices at bit-identical positions,
  // but tiling permutes ids (tile-major vs insertion order). Build the
  // correspondence by exact position: generator points are distinct.
  const auto pos_key = [](const EnPoint& p) {
    uint64_t xb = 0;
    uint64_t yb = 0;
    static_assert(sizeof xb == sizeof p.x);
    std::memcpy(&xb, &p.x, sizeof xb);
    std::memcpy(&yb, &p.y, sizeof yb);
    return SplitMix64(xb) ^ yb;
  };
  std::unordered_map<uint64_t, VertexId> flat_by_pos;
  flat_by_pos.reserve(fnet.num_vertices());
  fnet.ForEachVertex([&](const Vertex& v) {
    ASSERT_TRUE(flat_by_pos.emplace(pos_key(v.position), v.id).second);
  });
  // tiled vertex id -> flat vertex id.
  std::unordered_map<VertexId, VertexId> to_flat;
  to_flat.reserve(tnet.num_vertices());
  tnet.ForEachVertex([&](const Vertex& v) {
    const auto it = flat_by_pos.find(pos_key(v.position));
    ASSERT_NE(it, flat_by_pos.end());
    to_flat.emplace(v.id, it->second);
  });
  // Flat (from, to) endpoint pair -> flat edge id. Endpoint pairs are
  // unique in the generated metro (no parallel edges).
  std::unordered_map<uint64_t, EdgeId> flat_edge_by_pair;
  flat_edge_by_pair.reserve(fnet.num_edges());
  fnet.ForEachEdge([&](const Edge& e) {
    const uint64_t key =
        SplitMix64((static_cast<uint64_t>(static_cast<uint32_t>(e.from))
                    << 32) |
                   static_cast<uint32_t>(e.to));
    ASSERT_TRUE(flat_edge_by_pair.emplace(key, e.id).second);
  });
  const auto translate_edge = [&](EdgeId tiled_edge) {
    const Edge& te = tnet.edge(tiled_edge);
    const uint64_t key = SplitMix64(
        (static_cast<uint64_t>(
             static_cast<uint32_t>(to_flat.at(te.from)))
         << 32) |
        static_cast<uint32_t>(to_flat.at(te.to)));
    const auto it = flat_edge_by_pair.find(key);
    return it == flat_edge_by_pair.end() ? kInvalidEdge : it->second;
  };

  const Router trouter(&tnet);
  const Router frouter(&fnet);
  Rng rng(20121001);
  const auto n = static_cast<int64_t>(tnet.num_vertices());
  int compared = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const auto ord_a = static_cast<size_t>(rng.UniformInt(0, n - 1));
    const auto ord_b = static_cast<size_t>(rng.UniformInt(0, n - 1));
    const VertexId ta = tnet.VertexIdAt(ord_a);
    const VertexId tb = tnet.VertexIdAt(ord_b);
    const Result<Path> tp = trouter.ShortestPath(ta, tb);
    const Result<Path> fp =
        frouter.ShortestPath(to_flat.at(ta), to_flat.at(tb));
    ASSERT_EQ(tp.ok(), fp.ok()) << "trial " << trial;
    if (!tp.ok()) continue;
    ASSERT_DOUBLE_EQ(tp->length_m, fp->length_m) << "trial " << trial;
    ASSERT_EQ(tp->steps.size(), fp->steps.size()) << "trial " << trial;
    for (size_t s = 0; s < tp->steps.size(); ++s) {
      // Translate the tiled step's edge through the endpoint
      // correspondence; the sequences must then agree exactly.
      EXPECT_EQ(translate_edge(tp->steps[s].edge), fp->steps[s].edge)
          << "trial " << trial << " step " << s;
      EXPECT_EQ(tp->steps[s].forward, fp->steps[s].forward);
    }
    ++compared;
  }
  // The metro core is well connected; most pairs must have routed.
  EXPECT_GT(compared, 40);
}

// --- Metro generator structure ----------------------------------------------

TEST(MetroMapTest, DeterministicInSeed) {
  const synth::MetroMapOptions options = synth::MetroPreset(0);
  const synth::MetroMap a = synth::GenerateMetroMap(options).value();
  const synth::MetroMap b = synth::GenerateMetroMap(options).value();
  ASSERT_EQ(a.network.num_vertices(), b.network.num_vertices());
  ASSERT_EQ(a.network.num_edges(), b.network.num_edges());
  a.network.ForEachEdge([&](const Edge& e) {
    const Edge& other = b.network.edge(e.id);
    EXPECT_EQ(e.from, other.from);
    EXPECT_EQ(e.to, other.to);
    EXPECT_EQ(e.length_m, other.length_m);
    EXPECT_EQ(e.direction, other.direction);
  });

  synth::MetroMapOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  const synth::MetroMap c = synth::GenerateMetroMap(reseeded).value();
  // A different seed removes a different street subset.
  EXPECT_NE(a.network.num_edges(), c.network.num_edges());
}

TEST(MetroMapTest, StructuralCensus) {
  const synth::MetroMap map =
      synth::GenerateMetroMap(synth::MetroPreset(0)).value();
  EXPECT_EQ(map.num_districts, 4);
  EXPECT_GT(map.num_bridges, 0);
  EXPECT_GT(map.num_ring_vertices, 0);
  EXPECT_TRUE(map.network.Validate().ok());
  // Rivers choke crossings: the river gap carries fewer connectors
  // than a riverless gap would (kconn per district column).
  const synth::MetroMapOptions options = synth::MetroPreset(0);
  EXPECT_LT(map.num_bridges,
            options.connectors_per_side * options.districts_x);
}

TEST(MetroMapTest, PresetsScaleToMetroSize) {
  const synth::MetroMap small =
      synth::GenerateMetroMap(synth::MetroPreset(0)).value();
  EXPECT_GE(small.network.num_vertices(), 1000u);
  // Level 3 is the >= 100k-vertex preset the scale sweep relies on;
  // generating it here would slow the suite, so check the arithmetic.
  const synth::MetroMapOptions big = synth::MetroPreset(3);
  const long lattice_vertices = static_cast<long>(big.districts_x) *
                                big.districts_y * big.district_nodes_x *
                                big.district_nodes_y;
  EXPECT_GE(lattice_vertices, 100000);
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
