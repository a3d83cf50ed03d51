#include "taxitrace/clean/cleaning_pipeline.h"

#include <utility>


namespace taxitrace {
namespace clean {

TripCleanOutput CleanOneTrip(trace::Trip trip,
                             const CleaningOptions& options) {
  TripCleanOutput out;
  SanitizeTrip(&trip, options.sanitize, &out.faults);
  out.points_after_sanitize = static_cast<int64_t>(trip.points.size());
  if (options.sanitize.enabled && trip.points.empty()) {
    // Injected empty trips (and trips whose every point was dropped)
    // end here; the regular stages would only pass the emptiness along.
    ++out.faults.trips_dropped_empty;
    return out;
  }
  // The raw trip's totals are not read before segmentation sets each
  // segment's, so the stages run on the points alone and share one
  // step-distance array (trace::StepDistances).
  out.order.Count(RepairPointOrder(&trip.points));
  std::vector<double> steps = trace::StepDistances(trip.points);
  FilterOutliers(&trip.points, &steps, options.outliers, &out.outliers);
  out.points_after_outliers = static_cast<int64_t>(trip.points.size());
  if (options.restore_lost_points) {
    RestoreLostPoints(&trip.points, options.interpolation,
                      &out.interpolation);
    steps = trace::StepDistances(trip.points);
  }
  std::vector<trace::Trip> segments =
      SegmentTrip(trip, steps, options.segmentation, &out.segmentation);
  std::vector<double> lengths;
  lengths.reserve(segments.size());
  for (const trace::Trip& seg : segments) {
    lengths.push_back(seg.total_distance_m);
  }
  out.segments = FilterTrips(std::move(segments), lengths, options.filter,
                             &out.filter);
  return out;
}

void FoldTripCleanOutput(const TripCleanOutput& out,
                         CleaningReport* report) {
  CleaningReport& local = *report;
  local.points_after_sanitize += out.points_after_sanitize;
  local.points_after_outliers += out.points_after_outliers;
  local.order.trips_consistent += out.order.trips_consistent;
  local.order.trips_repaired_by_id += out.order.trips_repaired_by_id;
  local.order.trips_repaired_by_timestamp +=
      out.order.trips_repaired_by_timestamp;
  local.outliers.duplicates_removed += out.outliers.duplicates_removed;
  local.outliers.spikes_removed += out.outliers.spikes_removed;
  local.outliers.implied_speed_removed +=
      out.outliers.implied_speed_removed;
  local.interpolation.gaps_restored += out.interpolation.gaps_restored;
  local.interpolation.points_inserted +=
      out.interpolation.points_inserted;
  for (int r = 0; r < 5; ++r) {
    local.segmentation.splits_by_rule[r] +=
        out.segmentation.splits_by_rule[r];
  }
  local.segmentation.trips_in += out.segmentation.trips_in;
  local.segmentation.segments_out += out.segmentation.segments_out;
  local.filter.removed_too_few_points +=
      out.filter.removed_too_few_points;
  local.filter.removed_too_long += out.filter.removed_too_long;
  local.filter.kept += out.filter.kept;
  local.faults.Add(out.faults);
}

Result<std::vector<trace::Trip>> CleanTrips(const trace::TraceStore& store,
                                            const CleaningOptions& options,
                                            CleaningReport* report,
                                            const Executor* executor) {
  CleaningReport local;
  local.raw_trips = static_cast<int64_t>(store.NumTrips());
  local.raw_points = static_cast<int64_t>(store.NumPoints());

  const std::vector<trace::Trip>& raw = store.trips();
  std::vector<TripCleanOutput> outputs(raw.size());
  const Executor& ex = executor != nullptr ? *executor : Executor::Serial();
  TAXITRACE_RETURN_IF_ERROR(ex.ParallelFor(
      0, static_cast<int64_t>(raw.size()), [&](int64_t i) -> Status {
        outputs[static_cast<size_t>(i)] =
            CleanOneTrip(raw[static_cast<size_t>(i)], options);
        return Status::OK();
      }));

  std::vector<trace::Trip> cleaned;
  for (TripCleanOutput& out : outputs) {
    FoldTripCleanOutput(out, &local);
    for (trace::Trip& seg : out.segments) {
      cleaned.push_back(std::move(seg));
    }
  }

  local.clean_segments = static_cast<int64_t>(cleaned.size());
  for (const trace::Trip& t : cleaned) {
    local.clean_points += static_cast<int64_t>(t.points.size());
  }
  if (report != nullptr) *report = local;
  return cleaned;
}

}  // namespace clean
}  // namespace taxitrace
