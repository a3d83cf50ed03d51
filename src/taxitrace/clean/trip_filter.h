// Final segment filters (Section IV-C): segments with fewer than five
// route points give poor information; segments longer than 30 km are
// implausible in the local region.

#ifndef TAXITRACE_CLEAN_TRIP_FILTER_H_
#define TAXITRACE_CLEAN_TRIP_FILTER_H_

#include <vector>

#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace clean {

/// Filter thresholds.
struct TripFilterOptions {
  size_t min_points = 5;
  double max_length_m = 30000.0;
};

/// Aggregate counts over a filter run.
struct TripFilterStats {
  int64_t removed_too_few_points = 0;
  int64_t removed_too_long = 0;
  int64_t kept = 0;
};

/// True when a trip survives the filters.
bool PassesTripFilter(const trace::Trip& trip,
                      const TripFilterOptions& options = {});

/// Keeps only the trips that pass.
std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const TripFilterOptions& options = {},
                                     TripFilterStats* stats = nullptr);

/// The same filter with each trip's path length already known:
/// `lengths_m[i]` must equal PathLengthMeters(trips[i].points) for every
/// trip of at least `options.min_points` points (shorter ones are
/// dropped unread). The overload above measures the trips and calls
/// this one.
std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const std::vector<double>& lengths_m,
                                     const TripFilterOptions& options,
                                     TripFilterStats* stats);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_TRIP_FILTER_H_
