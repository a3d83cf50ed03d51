// Route points: the per-measurement records produced by the on-board
// tracking device. A point is generated when a significant change in the
// driving behaviour is registered (a turn, a speed change) — there is no
// fixed sampling rate.

#ifndef TAXITRACE_TRACE_ROUTE_POINT_H_
#define TAXITRACE_TRACE_ROUTE_POINT_H_

#include <cstdint>
#include <vector>

#include "taxitrace/geo/coordinates.h"

namespace taxitrace {
namespace trace {

/// One measurement record within a trip.
struct RoutePoint {
  /// Device-assigned sequence number, monotone in generation order.
  int64_t point_id = 0;
  /// Trip this point belongs to.
  int64_t trip_id = 0;
  /// Measurement time, seconds since the study epoch
  /// (2012-10-01 00:00 local — see time_util.h).
  double timestamp_s = 0.0;
  /// GPS fix.
  geo::LatLon position;
  /// Measured point speed, km/h.
  double speed_kmh = 0.0;
  /// Fuel consumed since the previous point of the trip, millilitres.
  double fuel_delta_ml = 0.0;
};

/// Sum of great-circle distances between consecutive points, metres.
double PathLengthMeters(const std::vector<RoutePoint>& points);

/// Great-circle distance from each point to its predecessor, metres:
/// steps[0] = 0 and steps[k] = HaversineMeters(points[k - 1].position,
/// points[k].position). The cleaning stages build this once per trip
/// and share it; summing steps[1..n) left to right from 0 equals
/// PathLengthMeters bit for bit.
std::vector<double> StepDistances(const std::vector<RoutePoint>& points);

/// Total time span between first and last point, seconds (0 for fewer
/// than two points). Assumes the points are in time order.
double TimeSpanSeconds(const std::vector<RoutePoint>& points);

}  // namespace trace
}  // namespace taxitrace

#endif  // TAXITRACE_TRACE_ROUTE_POINT_H_
