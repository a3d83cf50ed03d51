// Removal of the most obvious measurement errors: duplicated records and
// gross GPS position spikes.

#ifndef TAXITRACE_CLEAN_OUTLIER_FILTER_H_
#define TAXITRACE_CLEAN_OUTLIER_FILTER_H_

#include <vector>

#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace clean {

/// Thresholds for the error filters.
struct OutlierFilterOptions {
  /// Maximum physically plausible speed implied by consecutive fixes,
  /// m/s (45 m/s = 162 km/h, far above anything drivable downtown).
  double max_implied_speed_ms = 45.0;
  /// A point is a spike when it sits farther than this from both
  /// neighbours while the neighbours are close to each other, metres.
  double spike_distance_m = 250.0;
  /// Neighbour closeness for the spike test, fraction of the detour.
  double spike_closeness_ratio = 0.5;
};

/// Aggregate counts over a filter run.
struct OutlierFilterStats {
  int64_t duplicates_removed = 0;
  int64_t spikes_removed = 0;
  int64_t implied_speed_removed = 0;
};

/// Removes duplicated records (same point id and timestamp) and GPS
/// spikes from a point sequence ordered in time. Endpoints are kept
/// unless they fail the implied-speed test.
void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    const OutlierFilterOptions& options = {},
                    OutlierFilterStats* stats = nullptr);

/// The same filter reading the points' step distances
/// (trace::StepDistances) instead of recomputing them, and keeping
/// `steps` in step with the points as it removes some. The overload
/// above builds the array and calls this one.
void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    std::vector<double>* steps,
                    const OutlierFilterOptions& options,
                    OutlierFilterStats* stats);

/// Trip-level convenience wrapper (recomputes totals).
void FilterTripOutliers(trace::Trip* trip,
                        const OutlierFilterOptions& options = {},
                        OutlierFilterStats* stats = nullptr);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_OUTLIER_FILTER_H_
