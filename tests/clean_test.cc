#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/clean/order_repair.h"
#include "taxitrace/clean/outlier_filter.h"
#include "taxitrace/clean/segmentation.h"
#include "taxitrace/clean/trip_filter.h"
#include "taxitrace/common/random.h"
#include "taxitrace/core/study_config.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/synth/pedestrian_model.h"
#include "taxitrace/synth/weather_model.h"

namespace taxitrace {
namespace clean {
namespace {

// Points along a straight south-north street, ~22 m apart, 10 s apart.
std::vector<trace::RoutePoint> StraightDrive(int n, double t0 = 0.0,
                                             int64_t first_id = 1) {
  std::vector<trace::RoutePoint> pts;
  for (int i = 0; i < n; ++i) {
    trace::RoutePoint p;
    p.point_id = first_id + i;
    p.trip_id = 1;
    p.timestamp_s = t0 + 10.0 * i;
    p.position = geo::LatLon{65.0 + 0.0002 * i, 25.47};
    p.speed_kmh = 30.0;
    p.fuel_delta_ml = 2.0;
    pts.push_back(p);
  }
  return pts;
}

// --- Order repair -------------------------------------------------------------

TEST(OrderRepairTest, ConsistentSequenceUntouched) {
  // Equal timestamps and ids keep an in-order trip in order.
  std::vector<trace::RoutePoint> ties = StraightDrive(10);
  ties[6].timestamp_s = ties[5].timestamp_s;
  ties[7].point_id = ties[6].point_id;
  for (std::vector<trace::RoutePoint> pts : {StraightDrive(10), ties}) {
    const std::vector<trace::RoutePoint> original = pts;
    EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kConsistent);
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(pts[i].point_id, original[i].point_id);
      EXPECT_EQ(pts[i].timestamp_s, original[i].timestamp_s);
      EXPECT_EQ(pts[i].position.lat_deg, original[i].position.lat_deg);
    }
  }
}

TEST(OrderRepairTest, ScrambledStorageOrderIsCanonicalised) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  std::swap(pts[2], pts[7]);  // storage order wrong, fields consistent
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kConsistent);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].point_id, pts[i].point_id);
  }
}

TEST(OrderRepairTest, TimestampGlitchRepairedById) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  std::swap(pts[4].timestamp_s, pts[5].timestamp_s);
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kById);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].timestamp_s, pts[i].timestamp_s);
    EXPECT_LT(pts[i - 1].point_id, pts[i].point_id);
    // Geometry still the straight drive: monotone latitude.
    EXPECT_LT(pts[i - 1].position.lat_deg, pts[i].position.lat_deg);
  }
}

TEST(OrderRepairTest, IdGlitchRepairedByTimestamp) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  std::swap(pts[3].point_id, pts[4].point_id);
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kByTimestamp);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].position.lat_deg, pts[i].position.lat_deg);
  }
}

TEST(OrderRepairTest, PreservesFieldMultisets) {
  std::vector<trace::RoutePoint> pts = StraightDrive(8);
  std::swap(pts[2].timestamp_s, pts[3].timestamp_s);
  std::vector<double> times_before;
  std::vector<int64_t> ids_before;
  for (const auto& p : pts) {
    times_before.push_back(p.timestamp_s);
    ids_before.push_back(p.point_id);
  }
  RepairPointOrder(&pts);
  std::vector<double> times_after;
  std::vector<int64_t> ids_after;
  for (const auto& p : pts) {
    times_after.push_back(p.timestamp_s);
    ids_after.push_back(p.point_id);
  }
  std::sort(times_before.begin(), times_before.end());
  std::sort(ids_before.begin(), ids_before.end());
  EXPECT_EQ(times_after, times_before);  // already monotone after repair
  EXPECT_EQ(ids_after, ids_before);
}

TEST(OrderRepairTest, ShortSequencesAreConsistent) {
  std::vector<trace::RoutePoint> empty;
  EXPECT_EQ(RepairPointOrder(&empty), ChosenOrder::kConsistent);
  std::vector<trace::RoutePoint> one = StraightDrive(1);
  EXPECT_EQ(RepairPointOrder(&one), ChosenOrder::kConsistent);
}

TEST(OrderRepairTest, TripWrapperUpdatesTotalsAndStats) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  std::swap(trip.points[4].timestamp_s, trip.points[5].timestamp_s);
  OrderRepairStats stats;
  RepairTripOrder(&trip, &stats);
  EXPECT_EQ(stats.trips_repaired_by_id, 1);
  EXPECT_GT(trip.total_distance_m, 0.0);
  EXPECT_NEAR(trip.total_time_s, 90.0, 1e-9);
}

// --- Outlier filter -------------------------------------------------------------

TEST(OutlierFilterTest, RemovesExactDuplicates) {
  std::vector<trace::RoutePoint> pts = StraightDrive(6);
  pts.insert(pts.begin() + 3, pts[2]);  // duplicated record
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(stats.duplicates_removed, 1);
  EXPECT_EQ(pts.size(), 6u);
}

TEST(OutlierFilterTest, RemovesGpsSpike) {
  std::vector<trace::RoutePoint> pts = StraightDrive(8);
  pts[4].position.lon_deg += 0.01;  // ~470 m sideways jump
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(stats.spikes_removed, 1);
  EXPECT_EQ(pts.size(), 7u);
}

TEST(OutlierFilterTest, RemovesChainedSpikes) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  pts[4].position.lon_deg += 0.012;
  pts[5].position.lon_deg += 0.011;
  OutlierFilterStats stats;
  OutlierFilterOptions options;
  FilterOutliers(&pts, options, &stats);
  // Both displaced points disappear. Neither is a spike on the first
  // scan (they shield each other), so the speed pass removes one and
  // the next round's spike scan catches the survivor — the passes
  // iterate to a joint fixpoint. One on-street point (id 7) is
  // collateral of the speed pass while a displaced neighbour remains.
  for (const trace::RoutePoint& p : pts) {
    EXPECT_NE(p.point_id, 5);
    EXPECT_NE(p.point_id, 6);
  }
  EXPECT_EQ(pts.size(), 7u);
  EXPECT_EQ(stats.spikes_removed + stats.implied_speed_removed, 3);
}

TEST(OutlierFilterTest, RemovesImpliedSpeedViolation) {
  std::vector<trace::RoutePoint> pts = StraightDrive(6);
  // Last point teleports 5 km in 10 s (500 m/s) — not a spike pattern
  // (no return), caught by the implied-speed pass.
  pts[5].position.lat_deg += 0.05;
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(stats.implied_speed_removed, 1);
  EXPECT_EQ(pts.size(), 5u);
}

TEST(OutlierFilterTest, CleanDataUntouched) {
  std::vector<trace::RoutePoint> pts = StraightDrive(20);
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(pts.size(), 20u);
  EXPECT_EQ(stats.duplicates_removed, 0);
  EXPECT_EQ(stats.spikes_removed, 0);
  EXPECT_EQ(stats.implied_speed_removed, 0);
}

// --- Segmentation ----------------------------------------------------------------

// Appends a stationary block (keepalive points every 40 s) at the last
// position of `pts`.
void AppendStationary(std::vector<trace::RoutePoint>* pts,
                      double duration_s) {
  const trace::RoutePoint anchor = pts->back();
  const double t0 = anchor.timestamp_s;
  for (double dt = 40.0; dt <= duration_s; dt += 40.0) {
    trace::RoutePoint p = anchor;
    p.point_id = pts->back().point_id + 1;
    p.timestamp_s = t0 + dt;
    p.speed_kmh = 0.0;
    pts->push_back(p);
  }
}

TEST(SegmentationTest, SplitsAtLongStationaryRun) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  AppendStationary(&trip.points, 600.0);  // 10 min stand wait
  std::vector<trace::RoutePoint> second =
      StraightDrive(10, trip.points.back().timestamp_s + 40.0,
                    trip.points.back().point_id + 1);
  for (auto& p : second) {
    p.position.lat_deg += 0.005;  // resumes from elsewhere
  }
  trip.points.insert(trip.points.end(), second.begin(), second.end());

  SegmentationStats stats;
  const std::vector<trace::Trip> segments = SegmentTrip(trip, {}, &stats);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.splits_by_rule[0], 1);  // rule 1
  EXPECT_EQ(segments[0].points.size(), 10u + 4u);  // keeps early waits
  EXPECT_EQ(segments[1].points.size(), 10u);
  // Segment ids derive from the source trip id.
  EXPECT_EQ(segments[0].trip_id, trip.trip_id * 1000);
  EXPECT_EQ(segments[1].trip_id, trip.trip_id * 1000 + 1);
}

TEST(SegmentationTest, ShortRedLightWaitDoesNotSplit) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  AppendStationary(&trip.points, 120.0);  // < 3 min
  std::vector<trace::RoutePoint> more =
      StraightDrive(5, trip.points.back().timestamp_s + 10.0,
                    trip.points.back().point_id + 1);
  for (auto& p : more) p.position.lat_deg += 0.003;
  trip.points.insert(trip.points.end(), more.begin(), more.end());
  const std::vector<trace::Trip> segments = SegmentTrip(trip, {});
  EXPECT_EQ(segments.size(), 1u);
}

TEST(SegmentationTest, Rule2SplitsLongSilentGap) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  std::vector<trace::RoutePoint> second = StraightDrive(
      10, trip.points.back().timestamp_s + 480.0,  // 8 min silence
      trip.points.back().point_id + 1);
  for (auto& p : second) p.position.lat_deg += 0.002;  // moved ~200 m
  trip.points.insert(trip.points.end(), second.begin(), second.end());
  SegmentationStats stats;
  const std::vector<trace::Trip> segments = SegmentTrip(trip, {}, &stats);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.splits_by_rule[1], 1);  // rule 2
}

TEST(SegmentationTest, Rule4SplitsSlowLongGap) {
  SegmentationOptions options;
  trace::Trip trip;
  trip.points = StraightDrive(10);
  trace::RoutePoint far = trip.points.back();
  far.point_id += 1;
  far.timestamp_s += 1000.0;          // > 15 min
  far.position.lat_deg += 0.02;       // ~2.2 km (< 3 km, speed > 0.002)
  trip.points.push_back(far);
  SegmentationStats stats;
  const std::vector<trace::Trip> segments =
      SegmentTrip(trip, options, &stats);
  ASSERT_EQ(segments.size(), 2u);
  // Rule 2 has a shorter window so it wins here; force rule 4 by
  // disabling rule 2.
  SegmentationOptions no_rule2 = options;
  no_rule2.rule2_window_s = 1e9;
  SegmentationStats stats4;
  const auto segments4 = SegmentTrip(trip, no_rule2, &stats4);
  ASSERT_EQ(segments4.size(), 2u);
  EXPECT_EQ(stats4.splits_by_rule[3], 1);
}

TEST(SegmentationTest, Rule5ResplitsOverlongSegments) {
  // A 45 km drive with 100 s pauses (under the 3-minute rule 1 window
  // but over the rule-5 90 s window).
  SegmentationOptions options;
  trace::Trip trip;
  trip.points = StraightDrive(3);
  double t = trip.points.back().timestamp_s;
  double lat = trip.points.back().position.lat_deg;
  int64_t id = trip.points.back().point_id;
  for (int block = 0; block < 5; ++block) {
    // Pause 100 s at the current position.
    trace::RoutePoint pause = trip.points.back();
    pause.point_id = ++id;
    pause.timestamp_s = t + 100.0;
    trip.points.push_back(pause);
    t += 100.0;
    // Drive 10 km north in 100-m steps.
    for (int k = 0; k < 100; ++k) {
      trace::RoutePoint p = trip.points.back();
      p.point_id = ++id;
      p.timestamp_s = (t += 10.0);
      p.position.lat_deg = (lat += 0.0009);
      trip.points.push_back(p);
    }
  }
  SegmentationStats stats;
  const std::vector<trace::Trip> segments =
      SegmentTrip(trip, options, &stats);
  EXPECT_GT(segments.size(), 1u);
  EXPECT_GT(stats.splits_by_rule[4], 0);  // rule 5 fired
  for (const trace::Trip& seg : segments) {
    EXPECT_LE(trace::PathLengthMeters(seg.points),
              options.rule5_length_m + 11000.0);
  }
}

// Rule 1 measures from the first point of the stationary run, not from
// the previous point: a slow creep in ~15 m steps is moving, and GPS
// jitter in ~24 m steps between fixes ~12 m either side of one spot is
// parked.
TEST(SegmentationTest, Rule1MeasuresFromTheRunAnchor) {
  // A drive, then 10 minutes of fixes every 40 s at `offset_deg(k)`
  // degrees north of where it ended.
  const auto drive_then = [](const auto& offset_deg) {
    trace::Trip trip;
    trip.points = StraightDrive(10);
    const trace::RoutePoint end = trip.points.back();
    for (int k = 1; k <= 15; ++k) {
      trace::RoutePoint p = end;
      p.point_id += k;
      p.timestamp_s += 40.0 * k;
      p.position.lat_deg += offset_deg(k);
      trip.points.push_back(p);
    }
    return trip;
  };
  SegmentationStats creep;
  const auto creeping = drive_then([](int k) { return 0.000135 * k; });
  EXPECT_EQ(SegmentTrip(creeping, {}, &creep).size(), 1u);
  EXPECT_EQ(creep.splits_by_rule[0], 0);

  SegmentationStats jitter;
  const auto jittering =
      drive_then([](int k) { return k % 2 == 1 ? 0.000108 : -0.000108; });
  EXPECT_EQ(SegmentTrip(jittering, {}, &jitter).size(), 1u);
  EXPECT_EQ(jitter.splits_by_rule[0], 1);
}

TEST(SegmentationTest, EmptyTripYieldsNothing) {
  trace::Trip trip;
  EXPECT_TRUE(SegmentTrip(trip, {}).empty());
}

TEST(SegmentationTest, SegmentTripsProcessesAll) {
  trace::Trip a;
  a.trip_id = 1;
  a.points = StraightDrive(5);
  trace::Trip b;
  b.trip_id = 2;
  b.points = StraightDrive(5, 5000.0, 100);
  SegmentationStats stats;
  const auto segments = SegmentTrips({a, b}, {}, &stats);
  EXPECT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.trips_in, 2);
  EXPECT_EQ(stats.segments_out, 2);
}

// --- Trip filter ------------------------------------------------------------------

TEST(TripFilterTest, DropsTinyTrips) {
  trace::Trip small;
  small.points = StraightDrive(4);
  trace::Trip ok;
  ok.points = StraightDrive(5);
  TripFilterStats stats;
  const auto kept = FilterTrips({small, ok}, {}, &stats);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(stats.removed_too_few_points, 1);
  EXPECT_EQ(stats.kept, 1);
}

TEST(TripFilterTest, DropsOverlongTrips) {
  trace::Trip monster;
  monster.points = StraightDrive(5);
  monster.points.back().position.lat_deg += 0.5;  // ~55 km hop
  TripFilterStats stats;
  const auto kept = FilterTrips({monster}, {}, &stats);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(stats.removed_too_long, 1);
  EXPECT_FALSE(PassesTripFilter(monster));
}

TEST(TripFilterTest, BoundaryCounts) {
  TripFilterOptions options;
  options.min_points = 3;
  trace::Trip exactly;
  exactly.points = StraightDrive(3);
  EXPECT_TRUE(PassesTripFilter(exactly, options));
}

// --- Full pipeline -----------------------------------------------------------------

TEST(CleaningPipelineTest, EndToEnd) {
  trace::TraceStore store;
  // Trip 1: clean drive + long stand wait + second drive.
  trace::Trip t1;
  t1.trip_id = 1;
  t1.car_id = 1;
  t1.points = StraightDrive(12);
  AppendStationary(&t1.points, 400.0);
  auto tail = StraightDrive(12, t1.points.back().timestamp_s + 40.0,
                            t1.points.back().point_id + 1);
  for (auto& p : tail) p.position.lat_deg += 0.004;
  t1.points.insert(t1.points.end(), tail.begin(), tail.end());
  // Inject a timestamp glitch and a spike.
  std::swap(t1.points[3].timestamp_s, t1.points[4].timestamp_s);
  t1.points[6].position.lon_deg += 0.01;
  ASSERT_TRUE(store.AddTrip(t1).ok());

  // Trip 2: too short to survive.
  trace::Trip t2;
  t2.trip_id = 2;
  t2.car_id = 1;
  t2.points = StraightDrive(3, 90000.0, 500);
  ASSERT_TRUE(store.AddTrip(t2).ok());

  CleaningReport report;
  const std::vector<trace::Trip> cleaned =
      CleanTrips(store, {}, &report).value();
  EXPECT_EQ(report.raw_trips, 2);
  EXPECT_EQ(report.order.trips_repaired_by_id, 1);
  EXPECT_EQ(report.outliers.spikes_removed, 1);
  EXPECT_GE(report.segmentation.splits_by_rule[0], 1);
  EXPECT_EQ(report.filter.removed_too_few_points, 1);
  ASSERT_EQ(cleaned.size(), 2u);  // the two drives of trip 1
  for (const trace::Trip& seg : cleaned) {
    EXPECT_GE(seg.points.size(), 5u);
    for (size_t i = 1; i < seg.points.size(); ++i) {
      EXPECT_LE(seg.points[i - 1].timestamp_s, seg.points[i].timestamp_s);
    }
  }
  EXPECT_EQ(report.clean_segments, 2);
  EXPECT_GT(report.clean_points, 0);
}

// --- Step distances shared across stages -------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Exact equality of two step arrays.
void ExpectSameSteps(const std::vector<double>& a,
                     const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(Bits(a[k]), Bits(b[k])) << "step " << k;
  }
}

// A straight drive with `n` displaced points from index `at` on, each
// `lon_offset` degrees east of the street.
std::vector<trace::RoutePoint> DriveWithCluster(int n_points, size_t at,
                                                int n,
                                                double lon_offset) {
  std::vector<trace::RoutePoint> pts = StraightDrive(n_points);
  for (int k = 0; k < n; ++k) pts[at + k].position.lon_deg += lon_offset;
  return pts;
}

// Hand-built raw trips covering every branch that keeps the step array
// in step with the points (ids 1..).
std::vector<trace::Trip> HandBuiltTrips() {
  std::vector<trace::Trip> trips;
  const auto add = [&](std::vector<trace::RoutePoint> pts) {
    trace::Trip t;
    t.trip_id = static_cast<int64_t>(trips.size()) + 1;
    t.car_id = 1;
    t.points = std::move(pts);
    trips.push_back(std::move(t));
  };
  // Spike clusters that need a second outlier round.
  add(DriveWithCluster(12, 4, 2, 0.012));
  add(DriveWithCluster(16, 5, 3, 0.011));
  {
    std::vector<trace::RoutePoint> pts = DriveWithCluster(20, 3, 2, 0.012);
    pts[12].position.lon_deg -= 0.01;  // plus a lone spike later on
    add(pts);
  }
  // Runs of implied-speed drops: a displaced run that does not return,
  // and a bad first fix.
  add(DriveWithCluster(14, 9, 5, 0.05));
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(12);
    pts[0].position.lat_deg -= 0.05;
    pts[1].position.lat_deg -= 0.05;
    add(pts);
  }
  // Duplicate records, one with a moved position, back to back.
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(10);
    pts.insert(pts.begin() + 3, pts[2]);
    pts.insert(pts.begin() + 3, pts[2]);
    trace::RoutePoint moved = pts[7];
    moved.position.lon_deg += 0.0003;
    pts.insert(pts.begin() + 8, moved);
    add(pts);
  }
  // Swapped ids, swapped timestamps, scrambled storage order.
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(12);
    std::swap(pts[4].point_id, pts[5].point_id);
    add(pts);
  }
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(12);
    std::swap(pts[4].timestamp_s, pts[5].timestamp_s);
    pts[8].position.lon_deg += 0.01;
    add(pts);
  }
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(12);
    std::swap(pts[2], pts[9]);
    add(pts);
  }
  // Equal timestamps on an in-order trip.
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(12);
    pts[6].timestamp_s = pts[5].timestamp_s;
    pts[7].timestamp_s = pts[5].timestamp_s;
    add(pts);
  }
  // A segment over 40 km, re-split by rule 5.
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(3);
    for (int block = 0; block < 5; ++block) {
      trace::RoutePoint p = pts.back();
      ++p.point_id;
      p.timestamp_s += 100.0;
      pts.push_back(p);
      for (int k = 0; k < 100; ++k) {
        ++p.point_id;
        p.timestamp_s += 10.0;
        p.position.lat_deg += 0.0009;
        pts.push_back(p);
      }
    }
    add(pts);
  }
  // A stop longer than the rule-1 window, then more driving.
  {
    std::vector<trace::RoutePoint> pts = StraightDrive(10);
    AppendStationary(&pts, 600.0);
    std::vector<trace::RoutePoint> more =
        StraightDrive(10, pts.back().timestamp_s + 40.0,
                      pts.back().point_id + 1);
    for (auto& p : more) p.position.lat_deg += 0.005;
    pts.insert(pts.end(), more.begin(), more.end());
    add(pts);
  }
  // Trips of 0, 1 and 2 points.
  add({});
  add(StraightDrive(1));
  add(StraightDrive(2));
  return trips;
}

// Every raw trip of the reduced study.
std::vector<trace::Trip> SmallStudyRawTrips() {
  const core::StudyConfig config = core::StudyConfig::SmallStudy();
  const synth::CityMap map = synth::GenerateCityMap(config.map).value();
  const synth::WeatherModel weather(config.weather_seed,
                                    config.fleet.num_days);
  const synth::PedestrianModel pedestrians(
      config.fleet.seed + 17, map.hotspots, config.fleet.num_days);
  const synth::FleetSimulator fleet(&map, &weather, config.fleet,
                                    &pedestrians);
  return fleet.Run().value().store.trips();
}

// The public stages called one after another, each measuring the points
// afresh.
TripCleanOutput ComposeStages(trace::Trip trip,
                              const CleaningOptions& options) {
  TripCleanOutput out;
  out.points_after_sanitize = static_cast<int64_t>(trip.points.size());
  RepairTripOrder(&trip, &out.order);
  FilterTripOutliers(&trip, options.outliers, &out.outliers);
  out.points_after_outliers = static_cast<int64_t>(trip.points.size());
  if (options.restore_lost_points) {
    RestoreTripLostPoints(&trip, options.interpolation, &out.interpolation);
  }
  out.segments = FilterTrips(
      SegmentTrip(trip, options.segmentation, &out.segmentation),
      options.filter, &out.filter);
  return out;
}

void ExpectSamePoint(const trace::RoutePoint& a, const trace::RoutePoint& b) {
  EXPECT_EQ(a.point_id, b.point_id);
  EXPECT_EQ(a.trip_id, b.trip_id);
  EXPECT_EQ(Bits(a.timestamp_s), Bits(b.timestamp_s));
  EXPECT_EQ(Bits(a.position.lat_deg), Bits(b.position.lat_deg));
  EXPECT_EQ(Bits(a.position.lon_deg), Bits(b.position.lon_deg));
  EXPECT_EQ(Bits(a.speed_kmh), Bits(b.speed_kmh));
  EXPECT_EQ(Bits(a.fuel_delta_ml), Bits(b.fuel_delta_ml));
}

void ExpectSameOutput(const TripCleanOutput& a, const TripCleanOutput& b) {
  EXPECT_EQ(a.points_after_sanitize, b.points_after_sanitize);
  EXPECT_EQ(a.points_after_outliers, b.points_after_outliers);
  EXPECT_EQ(a.order.trips_consistent, b.order.trips_consistent);
  EXPECT_EQ(a.order.trips_repaired_by_id, b.order.trips_repaired_by_id);
  EXPECT_EQ(a.order.trips_repaired_by_timestamp,
            b.order.trips_repaired_by_timestamp);
  EXPECT_EQ(a.outliers.duplicates_removed, b.outliers.duplicates_removed);
  EXPECT_EQ(a.outliers.spikes_removed, b.outliers.spikes_removed);
  EXPECT_EQ(a.outliers.implied_speed_removed,
            b.outliers.implied_speed_removed);
  EXPECT_EQ(a.interpolation.gaps_restored, b.interpolation.gaps_restored);
  EXPECT_EQ(a.interpolation.points_inserted,
            b.interpolation.points_inserted);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(a.segmentation.splits_by_rule[r],
              b.segmentation.splits_by_rule[r])
        << "rule " << r + 1;
  }
  EXPECT_EQ(a.segmentation.trips_in, b.segmentation.trips_in);
  EXPECT_EQ(a.segmentation.segments_out, b.segmentation.segments_out);
  EXPECT_EQ(a.filter.removed_too_few_points, b.filter.removed_too_few_points);
  EXPECT_EQ(a.filter.removed_too_long, b.filter.removed_too_long);
  EXPECT_EQ(a.filter.kept, b.filter.kept);
  EXPECT_EQ(a.faults.TotalDropped(), b.faults.TotalDropped());
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    const trace::Trip& x = a.segments[s];
    const trace::Trip& y = b.segments[s];
    EXPECT_EQ(x.trip_id, y.trip_id);
    EXPECT_EQ(x.car_id, y.car_id);
    EXPECT_EQ(Bits(x.total_time_s), Bits(y.total_time_s));
    EXPECT_EQ(Bits(x.total_distance_m), Bits(y.total_distance_m));
    EXPECT_EQ(Bits(x.total_fuel_ml), Bits(y.total_fuel_ml));
    // Both lengths are the points' own path length, not a stale sum.
    EXPECT_EQ(Bits(x.total_distance_m),
              Bits(trace::PathLengthMeters(x.points)));
    ASSERT_EQ(x.points.size(), y.points.size());
    for (size_t k = 0; k < x.points.size(); ++k) {
      ExpectSamePoint(x.points[k], y.points[k]);
    }
  }
}

TEST(CleanOneTripTest, EqualsStageComposition) {
  std::vector<trace::Trip> trips = HandBuiltTrips();
  const size_t hand_built = trips.size();
  std::vector<trace::Trip> study = SmallStudyRawTrips();
  ASSERT_GT(study.size(), 100u);
  trips.insert(trips.end(), study.begin(), study.end());

  CleaningOptions interpolating;
  interpolating.restore_lost_points = true;
  for (const CleaningOptions& options : {CleaningOptions{}, interpolating}) {
    TripCleanOutput fused_total;
    TripCleanOutput composed_total;
    for (size_t i = 0; i < trips.size(); ++i) {
      SCOPED_TRACE(i < hand_built ? "hand-built trip " + std::to_string(i)
                                  : "study trip " + std::to_string(i));
      const TripCleanOutput fused = CleanOneTrip(trips[i], options);
      const TripCleanOutput composed = ComposeStages(trips[i], options);
      ExpectSameOutput(fused, composed);
      if (testing::Test::HasFailure()) return;
      fused_total.outliers.spikes_removed += fused.outliers.spikes_removed;
      fused_total.outliers.implied_speed_removed +=
          fused.outliers.implied_speed_removed;
      fused_total.outliers.duplicates_removed +=
          fused.outliers.duplicates_removed;
      fused_total.segmentation.splits_by_rule[4] +=
          fused.segmentation.splits_by_rule[4];
    }
    // The inputs reach the branches they were built for.
    EXPECT_GT(fused_total.outliers.spikes_removed, 0);
    EXPECT_GT(fused_total.outliers.implied_speed_removed, 0);
    EXPECT_GT(fused_total.outliers.duplicates_removed, 0);
    EXPECT_GT(fused_total.segmentation.splits_by_rule[4], 0);
  }
}

// After every removal branch the filter's step array still equals the
// step distances of the surviving points.
TEST(OutlierFilterTest, KeepsStepsInStepWithPoints) {
  for (const trace::Trip& trip : HandBuiltTrips()) {
    SCOPED_TRACE(trip.trip_id);
    std::vector<trace::RoutePoint> pts = trip.points;
    RepairPointOrder(&pts);
    std::vector<double> steps = trace::StepDistances(pts);
    FilterOutliers(&pts, &steps, {}, nullptr);
    ExpectSameSteps(steps, trace::StepDistances(pts));
  }
}

}  // namespace
}  // namespace clean
}  // namespace taxitrace
