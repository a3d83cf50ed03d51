#include "taxitrace/clean/trip_filter.h"

#include <utility>

namespace taxitrace {
namespace clean {

bool PassesTripFilter(const trace::Trip& trip,
                      const TripFilterOptions& options) {
  return trip.points.size() >= options.min_points &&
         trace::PathLengthMeters(trip.points) <= options.max_length_m;
}

std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const TripFilterOptions& options,
                                     TripFilterStats* stats) {
  // Too-short trips are dropped before their length is read.
  std::vector<double> lengths(trips.size(), 0.0);
  for (size_t i = 0; i < trips.size(); ++i) {
    if (trips[i].points.size() >= options.min_points) {
      lengths[i] = trace::PathLengthMeters(trips[i].points);
    }
  }
  return FilterTrips(std::move(trips), lengths, options, stats);
}

std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const std::vector<double>& lengths_m,
                                     const TripFilterOptions& options,
                                     TripFilterStats* stats) {
  std::vector<trace::Trip> out;
  out.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    if (trips[i].points.size() < options.min_points) {
      if (stats != nullptr) ++stats->removed_too_few_points;
      continue;
    }
    if (lengths_m[i] > options.max_length_m) {
      if (stats != nullptr) ++stats->removed_too_long;
      continue;
    }
    if (stats != nullptr) ++stats->kept;
    out.push_back(std::move(trips[i]));
  }
  return out;
}

}  // namespace clean
}  // namespace taxitrace
