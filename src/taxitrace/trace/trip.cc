#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace trace {

void Trip::RecomputeTotals() { RecomputeTotals(PathLengthMeters(points)); }

void Trip::RecomputeTotals(double path_length_m) {
  total_time_s = TimeSpanSeconds(points);
  total_distance_m = path_length_m;
  total_fuel_ml = 0.0;
  for (const RoutePoint& p : points) total_fuel_ml += p.fuel_delta_ml;
}

}  // namespace trace
}  // namespace taxitrace
