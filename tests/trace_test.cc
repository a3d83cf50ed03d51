#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "taxitrace/trace/time_util.h"
#include "taxitrace/trace/trace_io.h"
#include "taxitrace/trace/trace_store.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace trace {
namespace {

RoutePoint MakePoint(int64_t id, double t, double lat, double lon,
                     double speed = 30.0, double fuel = 1.0) {
  RoutePoint p;
  p.point_id = id;
  p.trip_id = 1;
  p.timestamp_s = t;
  p.position = geo::LatLon{lat, lon};
  p.speed_kmh = speed;
  p.fuel_delta_ml = fuel;
  return p;
}

// --- RoutePoint helpers ----------------------------------------------------

TEST(RoutePointTest, PathLengthEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(PathLengthMeters({}), 0.0);
  EXPECT_DOUBLE_EQ(PathLengthMeters({MakePoint(1, 0, 65.0, 25.0)}), 0.0);
}

TEST(RoutePointTest, PathLengthSums) {
  // Two hops of ~0.001 deg latitude (~111 m each).
  const std::vector<RoutePoint> pts = {
      MakePoint(1, 0, 65.000, 25.0), MakePoint(2, 10, 65.001, 25.0),
      MakePoint(3, 20, 65.002, 25.0)};
  EXPECT_NEAR(PathLengthMeters(pts), 2 * 111.19, 1.0);
}

TEST(RoutePointTest, TimeSpan) {
  const std::vector<RoutePoint> pts = {MakePoint(1, 5, 65, 25),
                                       MakePoint(2, 65, 65, 25)};
  EXPECT_DOUBLE_EQ(TimeSpanSeconds(pts), 60.0);
  EXPECT_DOUBLE_EQ(TimeSpanSeconds({}), 0.0);
}

TEST(TripTest, RecomputeTotals) {
  Trip trip;
  trip.points = {MakePoint(1, 0, 65.000, 25.0, 30, 2.0),
                 MakePoint(2, 30, 65.001, 25.0, 30, 3.0)};
  trip.RecomputeTotals();
  EXPECT_DOUBLE_EQ(trip.total_time_s, 30.0);
  EXPECT_NEAR(trip.total_distance_m, 111.19, 1.0);
  EXPECT_DOUBLE_EQ(trip.total_fuel_ml, 5.0);
  EXPECT_DOUBLE_EQ(trip.StartTime(), 0.0);
  EXPECT_DOUBLE_EQ(trip.EndTime(), 30.0);
}

// --- TraceStore ---------------------------------------------------------------

Trip MakeTrip(int64_t id, int car) {
  Trip t;
  t.trip_id = id;
  t.car_id = car;
  t.points = {MakePoint(1, 0, 65, 25), MakePoint(2, 10, 65.001, 25)};
  return t;
}

TEST(TraceStoreTest, AddAndQuery) {
  TraceStore store;
  ASSERT_TRUE(store.AddTrip(MakeTrip(1, 1)).ok());
  ASSERT_TRUE(store.AddTrip(MakeTrip(2, 2)).ok());
  ASSERT_TRUE(store.AddTrip(MakeTrip(3, 1)).ok());
  EXPECT_EQ(store.NumTrips(), 3u);
  EXPECT_EQ(store.NumPoints(), 6u);
  EXPECT_EQ(store.TripsForCar(1).size(), 2u);
  EXPECT_EQ(store.TripsForCar(9).size(), 0u);
  EXPECT_EQ(store.CarIds(), (std::vector<int>{1, 2}));
}

TEST(TraceStoreTest, DuplicateTripRejected) {
  TraceStore store;
  ASSERT_TRUE(store.AddTrip(MakeTrip(7, 1)).ok());
  EXPECT_EQ(store.AddTrip(MakeTrip(7, 2)).code(),
            StatusCode::kAlreadyExists);
}

TEST(TraceStoreTest, FindTrip) {
  TraceStore store;
  ASSERT_TRUE(store.AddTrip(MakeTrip(5, 3)).ok());
  EXPECT_EQ(store.FindTrip(5).value()->car_id, 3);
  EXPECT_TRUE(store.FindTrip(99).status().IsNotFound());
}

// --- Trace IO ------------------------------------------------------------------

TEST(TraceIoTest, CsvRoundTrip) {
  std::vector<Trip> trips = {MakeTrip(1, 1), MakeTrip(2, 2)};
  trips[0].points[1].speed_kmh = 55.5;
  for (Trip& t : trips) t.RecomputeTotals();
  const std::string csv = TripsToCsv(trips);
  const std::vector<Trip> parsed = TripsFromCsv(csv).value();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].trip_id, 1);
  EXPECT_EQ(parsed[1].car_id, 2);
  ASSERT_EQ(parsed[0].points.size(), 2u);
  EXPECT_NEAR(parsed[0].points[1].speed_kmh, 55.5, 1e-3);
  EXPECT_NEAR(parsed[0].total_distance_m, trips[0].total_distance_m, 0.5);
}

TEST(TraceIoTest, RejectsBadHeader) {
  EXPECT_FALSE(TripsFromCsv("a,b\n1,2\n").ok());
  EXPECT_FALSE(TripsFromCsv("").ok());
}

TEST(TraceIoTest, RejectsShortRow) {
  const std::string csv = TripsToCsv({MakeTrip(1, 1)}) + "1,2,3\n";
  EXPECT_TRUE(TripsFromCsv(csv).status().IsCorruption());
}

TEST(TraceIoTest, RejectsNonNumericField) {
  std::string csv = TripsToCsv({MakeTrip(1, 1)});
  const size_t pos = csv.find("\n") + 1;
  csv.replace(pos, 1, "x");
  EXPECT_FALSE(TripsFromCsv(csv).ok());
}

// Replaces field `column` of the first data row of `csv` with `text`.
std::string WithField(std::string csv, size_t column,
                      const std::string& text) {
  size_t begin = csv.find('\n') + 1;
  for (size_t c = 0; c < column; ++c) begin = csv.find(',', begin) + 1;
  const size_t end = csv.find_first_of(",\n", begin);
  return csv.replace(begin, end - begin, text);
}

// strtod reads nan and inf (and overflows to inf). The strict loader
// rejects them, naming the row and column; the lenient loader keeps
// them for the sanitiser to drop and count.
TEST(TraceIoTest, NonFiniteNumbersAreCorruption) {
  const std::string csv = TripsToCsv({MakeTrip(1, 1)});
  const char* const columns[] = {"timestamp_s", "lat", "lon", "speed_kmh",
                                 "fuel_delta_ml"};
  for (size_t c = 0; c < 5; ++c) {
    for (const char* text : {"nan", "inf", "-inf", "NAN", "1e999"}) {
      SCOPED_TRACE(std::string(columns[c]) + " = " + text);
      const std::string bad = WithField(csv, 3 + c, text);
      const Result<std::vector<Trip>> strict = TripsFromCsv(bad);
      ASSERT_TRUE(strict.status().IsCorruption());
      EXPECT_EQ(strict.status().message(),
                std::string("row 1, column ") + columns[c] +
                    ": not finite: " + text);
      TraceIoStats stats;
      const Result<std::vector<Trip>> lenient =
          TripsFromCsvLenient(bad, &stats);
      ASSERT_TRUE(lenient.ok());
      EXPECT_EQ(stats.rows_dropped_malformed, 0);
      ASSERT_EQ(lenient->size(), 1u);
      EXPECT_EQ((*lenient)[0].points.size(), 2u);
    }
  }
}

// Segment ids are trip_id * 1000 + k, so both loaders bound the trip id:
// +-kMaxTripId loads, one past it is malformed.
TEST(TraceIoTest, TripIdBeyondBoundIsMalformed) {
  for (const int64_t id : {kMaxTripId, -kMaxTripId}) {
    const std::string csv = TripsToCsv({MakeTrip(id, 1)});
    const Result<std::vector<Trip>> strict = TripsFromCsv(csv);
    ASSERT_TRUE(strict.ok()) << strict.status().ToString();
    EXPECT_EQ((*strict)[0].trip_id, id);
    EXPECT_EQ(SegmentTripId(id, 999), id * 1000 + 999);
    TraceIoStats stats;
    EXPECT_EQ(TripsFromCsvLenient(csv, &stats)->size(), 1u);
    EXPECT_EQ(stats.rows_dropped_malformed, 0);
  }
  for (const int64_t id : {kMaxTripId + 1, -kMaxTripId - 1,
                           std::numeric_limits<int64_t>::max()}) {
    SCOPED_TRACE(id);
    const std::string csv =
        TripsToCsv({MakeTrip(id, 1), MakeTrip(7, 1)});
    const Result<std::vector<Trip>> strict = TripsFromCsv(csv);
    ASSERT_TRUE(strict.status().IsCorruption());
    EXPECT_NE(strict.status().message().find("row 1, column trip_id"),
              std::string::npos);
    TraceIoStats stats;
    const Result<std::vector<Trip>> lenient =
        TripsFromCsvLenient(csv, &stats);
    ASSERT_TRUE(lenient.ok());
    EXPECT_EQ(stats.rows_dropped_malformed, 2);
    ASSERT_EQ(lenient->size(), 1u);
    EXPECT_EQ((*lenient)[0].trip_id, 7);
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/trips.csv";
  std::vector<Trip> trips = {MakeTrip(4, 2)};
  ASSERT_TRUE(WriteTripsFile(path, trips).ok());
  const std::vector<Trip> parsed = ReadTripsFile(path).value();
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].trip_id, 4);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadTripsFile("/no/such/file.csv").status().IsIOError());
}

// --- Time utilities ----------------------------------------------------------

TEST(TimeUtilTest, EpochIsOctoberFirst2012) {
  EXPECT_EQ(DateOfTimestamp(0.0), (CivilDate{2012, 10, 1}));
}

TEST(TimeUtilTest, CivilDaysRoundTrip) {
  for (int64_t day = -1000; day <= 30000; day += 137) {
    EXPECT_EQ(DaysFromCivil(CivilFromDays(day)), day);
  }
}

TEST(TimeUtilTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(CivilDate{1970, 1, 1}), 0);
  EXPECT_EQ(DaysFromCivil(CivilDate{2000, 3, 1}), 11017);
  EXPECT_EQ(CivilFromDays(11017), (CivilDate{2000, 3, 1}));
}

TEST(TimeUtilTest, StudyYearMonths) {
  EXPECT_EQ(MonthOfTimestamp(0.0), 10);                       // Oct 2012
  EXPECT_EQ(MonthOfTimestamp(31.0 * kSecondsPerDay), 11);     // Nov 2012
  EXPECT_EQ(MonthOfTimestamp(92.0 * kSecondsPerDay), 1);      // Jan 2013
  EXPECT_EQ(MonthOfTimestamp(364.0 * kSecondsPerDay), 9);     // Sep 2013
}

TEST(TimeUtilTest, LeapDayInsideWindow) {
  // 2013 is not a leap year: Feb has 28 days.
  const double march1 = (92.0 + 31.0 + 28.0) * kSecondsPerDay;
  EXPECT_EQ(DateOfTimestamp(march1), (CivilDate{2013, 3, 1}));
}

TEST(TimeUtilTest, DayOfStudyAndHourOfDay) {
  EXPECT_EQ(DayOfStudy(10.0), 0);
  EXPECT_EQ(DayOfStudy(kSecondsPerDay + 1.0), 1);
  EXPECT_NEAR(HourOfDay(kSecondsPerDay * 2 + 3600.0 * 7.5), 7.5, 1e-9);
}

TEST(TimeUtilTest, FormatTimestamp) {
  EXPECT_EQ(FormatTimestamp(0.0), "2012-10-01 00:00:00");
  EXPECT_EQ(FormatTimestamp(3600.0 * 13 + 62.0), "2012-10-01 13:01:02");
}

}  // namespace
}  // namespace trace
}  // namespace taxitrace
