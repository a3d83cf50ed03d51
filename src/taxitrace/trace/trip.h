// Trips: a run between two consecutive engine-off events, identified by a
// trip id and carrying start/end time, totals, and its route points.

#ifndef TAXITRACE_TRACE_TRIP_H_
#define TAXITRACE_TRACE_TRIP_H_

#include <cstdint>
#include <vector>

#include "taxitrace/trace/route_point.h"

namespace taxitrace {
namespace trace {

/// One trip (engine-on to engine-off) of one car.
struct Trip {
  int64_t trip_id = 0;
  int car_id = 0;
  std::vector<RoutePoint> points;
  /// Trip-level measurements as reported by the device.
  double total_time_s = 0.0;
  double total_distance_m = 0.0;
  double total_fuel_ml = 0.0;

  /// Start/end time of the trip (from the first/last point; 0 if empty).
  [[nodiscard]] double StartTime() const {
    return points.empty() ? 0.0 : points.front().timestamp_s;
  }
  [[nodiscard]] double EndTime() const {
    return points.empty() ? 0.0 : points.back().timestamp_s;
  }

  /// Recomputes the totals from the route points (used after cleaning or
  /// segmentation invalidates device-reported totals).
  void RecomputeTotals();
  /// The same, taking the path length already summed by the caller; it
  /// must equal PathLengthMeters(points).
  void RecomputeTotals(double path_length_m);
};

/// Largest trip id magnitude a trace loader accepts. Segmentation
/// derives segment ids as SegmentTripId below; within +-kMaxTripId,
/// `trip_id * 1000` stays within +-1e18, so adding any segment index a
/// trip can reach cannot overflow int64.
inline constexpr int64_t kMaxTripId = 1'000'000'000'000'000;  // 1e15

/// Id of the k-th segment cut from trip `source_trip_id`:
/// `source_trip_id * 1000 + k`. `source_trip_id` must lie within
/// +-kMaxTripId.
inline int64_t SegmentTripId(int64_t source_trip_id, int64_t k) {
  return source_trip_id * 1000 + k;
}

}  // namespace trace
}  // namespace taxitrace

#endif  // TAXITRACE_TRACE_TRIP_H_
