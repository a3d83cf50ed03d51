#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "taxitrace/common/strings.h"
#include "taxitrace/roadnet/map_io.h"
#include "taxitrace/synth/city_map_generator.h"

namespace taxitrace {
namespace roadnet {
namespace {

TrafficElement Sample(ElementId id) {
  TrafficElement el;
  el.id = id;
  el.geometry = geo::Polyline({{0, 0}, {55.5, -12.25}, {100, 3}});
  el.functional_class = FunctionalClass::kConnectingRoad;
  el.speed_limit_kmh = 50.0;
  el.direction = TravelDirection::kBackward;
  el.road_name = "street, with comma";
  return el;
}

TEST(MapIoTest, ElementsCsvRoundTrip) {
  const std::vector<TrafficElement> elements = {Sample(121499),
                                                Sample(138854)};
  const auto parsed = ElementsFromCsv(ElementsToCsv(elements)).value();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 121499);
  EXPECT_EQ(parsed[0].road_name, "street, with comma");
  EXPECT_EQ(parsed[0].direction, TravelDirection::kBackward);
  EXPECT_EQ(parsed[0].functional_class, FunctionalClass::kConnectingRoad);
  EXPECT_DOUBLE_EQ(parsed[0].speed_limit_kmh, 50.0);
  ASSERT_EQ(parsed[0].geometry.size(), 3u);
  EXPECT_NEAR(parsed[0].geometry.points()[1].x, 55.5, 1e-3);
  EXPECT_NEAR(parsed[0].geometry.points()[1].y, -12.25, 1e-3);
}

TEST(MapIoTest, FeaturesCsvRoundTrip) {
  const std::vector<FeatureSpec> features = {
      {FeatureType::kTrafficLight, geo::EnPoint{1.5, -2.5}},
      {FeatureType::kPedestrianCrossing, geo::EnPoint{100, 200}},
      {FeatureType::kBusStop, geo::EnPoint{-3, 4}},
  };
  const auto parsed = FeaturesFromCsv(FeaturesToCsv(features)).value();
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].type, FeatureType::kTrafficLight);
  EXPECT_NEAR(parsed[1].position.x, 100.0, 1e-3);
  EXPECT_EQ(parsed[2].type, FeatureType::kBusStop);
}

TEST(MapIoTest, RejectsCorruptInputs) {
  EXPECT_FALSE(ElementsFromCsv("").ok());
  EXPECT_FALSE(ElementsFromCsv("id,name\n1,x\n").ok());
  EXPECT_FALSE(
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n"
          "1,x,9,50,both,0:0|1:1\n")
          .ok());  // bad class
  EXPECT_FALSE(
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n"
          "1,x,2,50,sideways,0:0|1:1\n")
          .ok());  // bad direction
  EXPECT_FALSE(
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n"
          "1,x,2,50,both,0:0|broken\n")
          .ok());  // bad geometry
  EXPECT_FALSE(FeaturesFromCsv("type,x\nbus_stop,1\n").ok());
  EXPECT_FALSE(FeaturesFromCsv("type,x,y\nufo,1,2\n").ok());
}

// Regression: "inf" and "nan" parse as doubles, and a finite but huge
// coordinate (1e12 m) passed PrepareRoadNetwork, after which the
// spatial index tried to allocate a grid spanning it and threw
// std::length_error out of its constructor. Both now stop at the trust
// boundary with a Status.
constexpr char kElementsHeader[] =
    "id,name,functional_class,speed_limit_kmh,direction,geometry\n";

TEST(MapIoTest, NonFiniteNumbersAreCorruption) {
  for (const char* row : {"1,x,2,50,both,100.000:0.000|inf:0.000\n",
                          "1,x,2,50,both,100.000:0.000|0.000:nan\n",
                          "1,x,2,inf,both,0.000:0.000|100.000:0.000\n",
                          "1,x,2,50,both,100.000:0.000|1e999:0.000\n"}) {
    const auto parsed = ElementsFromCsv(std::string(kElementsHeader) + row);
    ASSERT_FALSE(parsed.ok()) << row;
    EXPECT_TRUE(parsed.status().IsCorruption()) << row;
    EXPECT_NE(parsed.status().message().find("row 1"), std::string::npos)
        << parsed.status().message();
  }
  const auto features = FeaturesFromCsv("type,x,y\nbus_stop,1,-nan\n");
  ASSERT_FALSE(features.ok());
  EXPECT_TRUE(features.status().IsCorruption());
  EXPECT_NE(features.status().message().find("column y"), std::string::npos)
      << features.status().message();
}

TEST(MapIoTest, FarCoordinatesAreRejectedByPreparation) {
  const geo::LatLon origin{65.0121, 25.4682};
  const auto far_element =
      ElementsFromCsv(std::string(kElementsHeader) +
                      "1,x,2,50,both,100.000:0.000|1e12:0.000\n");
  ASSERT_TRUE(far_element.ok());  // finite: parsing is not the gate
  const auto prepared = PrepareRoadNetwork(*far_element, {}, origin);
  ASSERT_FALSE(prepared.ok());
  EXPECT_TRUE(prepared.status().IsInvalidArgument());

  const auto near_element =
      ElementsFromCsv(std::string(kElementsHeader) +
                      "1,x,2,50,both,100.000:0.000|0.000:0.000\n");
  ASSERT_TRUE(near_element.ok());
  const auto far_feature = FeaturesFromCsv("type,x,y\nbus_stop,0,-1e12\n");
  ASSERT_TRUE(far_feature.ok());
  const auto with_feature =
      PrepareRoadNetwork(*near_element, *far_feature, origin);
  ASSERT_FALSE(with_feature.ok());
  EXPECT_TRUE(with_feature.status().IsInvalidArgument());

  // Just inside the bound still prepares.
  const std::string edge = StrFormat(
      "1,x,2,50,both,%.3f:0.000|%.3f:0.000\n",
      kMaxDistanceFromOriginM - 100.0, kMaxDistanceFromOriginM);
  const auto at_bound = ElementsFromCsv(std::string(kElementsHeader) + edge);
  ASSERT_TRUE(at_bound.ok());
  EXPECT_TRUE(PrepareRoadNetwork(*at_bound, {}, origin).ok());
}

TEST(MapIoTest, GeneratedCityRoundTripsThroughFiles) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const std::string elements_path =
      testing::TempDir() + "/elements.csv";
  const std::string features_path =
      testing::TempDir() + "/features.csv";
  ASSERT_TRUE(
      WriteElementsFile(elements_path, map.source_elements).ok());
  ASSERT_TRUE(
      WriteFeaturesFile(features_path, map.source_features).ok());

  const auto elements = ReadElementsFile(elements_path).value();
  const auto features = ReadFeaturesFile(features_path).value();
  ASSERT_EQ(elements.size(), map.source_elements.size());
  ASSERT_EQ(features.size(), map.source_features.size());

  // Preparing the reloaded map reproduces the same graph shape.
  MapPreparationStats stats;
  const RoadNetwork reloaded =
      PrepareRoadNetwork(elements, features, map.network.origin(), {},
                         &stats)
          .value();
  EXPECT_EQ(reloaded.num_edges(), map.network.num_edges());
  EXPECT_EQ(reloaded.num_vertices(), map.network.num_vertices());
  EXPECT_EQ(reloaded.features().size(), map.network.features().size());
  std::remove(elements_path.c_str());
  std::remove(features_path.c_str());
}

TEST(MapIoTest, NetworkGeoJsonShape) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const std::string json = NetworkToGeoJson(map.network);
  EXPECT_NE(json.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(json.find("\"LineString\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic_light\""), std::string::npos);
  EXPECT_NE(json.find("\"elements\":["), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
