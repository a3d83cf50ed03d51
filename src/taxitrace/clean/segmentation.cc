#include "taxitrace/clean/segmentation.h"

#include <cmath>
#include <cstddef>


namespace taxitrace {
namespace clean {
namespace {

// Returns the Table 2 rule (2..4) classifying the gap between two
// consecutive route points `d` metres apart as a stop, or 0 for ordinary
// driving. Rule 1 (and its rule 5 variant) is window-based and handled
// by the splitter.
int PairStopRule(const trace::RoutePoint& a, const trace::RoutePoint& b,
                 double d, const SegmentationOptions& opt) {
  const double dt = b.timestamp_s - a.timestamp_s;
  if (dt <= 0.0) return 0;
  const double implied_speed = d / dt;

  // Rule 3: crawling below 0.002 m/s across a long silent gap.
  if (implied_speed < opt.rule3_speed_ms && dt >= opt.rule1_window_s) {
    return 3;
  }
  // Rule 2: less than 3 km in more than 7 minutes.
  if (dt > opt.rule2_window_s && d < opt.rule2_max_move_m) return 2;
  // Rule 4: less than 3 km in more than 15 minutes while "moving".
  if (dt > opt.rule4_window_s && d < opt.rule4_max_move_m &&
      implied_speed > opt.rule3_speed_ms) {
    return 4;
  }
  return 0;
}

// A segment: the points [begin, end) of the trip being split.
struct Range {
  size_t begin = 0;
  size_t end = 0;
};

// Path length of a segment: its steps summed left to right from 0, the
// order PathLengthMeters sums in, so the two agree bit for bit.
double LengthMeters(const std::vector<double>& steps, Range seg) {
  double total = 0.0;
  for (size_t k = seg.begin + 1; k < seg.end; ++k) total += steps[k];
  return total;
}

// Splits points [begin, end) at stops and appends the segments to
// `segments`: rule 1 fires when the position has not changed (within
// GPS tolerance) for `window_s`; rules 2-4 fire on single long silent
// gaps. Stationary points beyond the rule-1 window belong to the stop
// itself and are dropped, so every segment is a run of consecutive
// points. `window_rule_index` selects which stats bucket the window
// splits land in (rule 1 vs rule 5).
void SplitAtStops(const std::vector<trace::RoutePoint>& points,
                  const std::vector<double>& steps, Range range,
                  double window_s, const SegmentationOptions& opt,
                  SegmentationStats* stats, int window_rule_index,
                  std::vector<Range>* segments) {
  // The current segment is [cur_begin, cur_end), empty when equal; when
  // non-empty it ends at the point just before the one being read.
  size_t cur_begin = range.begin;
  size_t cur_end = range.begin;
  // Stationary-run tracking: the anchor is the first point of the
  // current no-movement run.
  size_t anchor = range.begin;
  bool in_stop = false;  // consuming stationary points inside a stop

  const auto close_current = [&]() {
    if (cur_begin != cur_end) segments->push_back({cur_begin, cur_end});
    cur_begin = cur_end;
  };
  const auto start_at = [&](size_t k) {
    anchor = k;
    cur_begin = k;
    cur_end = k + 1;
  };
  // Distance from the anchor to point k; the stored step when the
  // anchor is k's predecessor.
  const auto from_anchor = [&](size_t k) {
    return anchor + 1 == k ? steps[k]
                           : geo::HaversineMeters(points[anchor].position,
                                                  points[k].position);
  };

  for (size_t k = range.begin; k < range.end; ++k) {
    const trace::RoutePoint& p = points[k];
    if (in_stop) {
      if (from_anchor(k) <= opt.no_change_tolerance_m) {
        continue;  // still parked: the point belongs to the stop
      }
      in_stop = false;  // movement resumed; start fresh
      start_at(k);
      continue;
    }
    if (cur_begin == cur_end) {
      start_at(k);
      continue;
    }
    const int pair_rule = PairStopRule(points[k - 1], p, steps[k], opt);
    if (pair_rule != 0) {
      ++stats->splits_by_rule[pair_rule - 1];
      close_current();
      start_at(k);
      continue;
    }
    if (from_anchor(k) > opt.no_change_tolerance_m) {
      // Moving: restart the stationary run at this point.
      anchor = k;
      cur_end = k + 1;
      continue;
    }
    // Within the stationary run.
    if (p.timestamp_s - points[anchor].timestamp_s >= window_s) {
      ++stats->splits_by_rule[window_rule_index];
      close_current();
      in_stop = true;
      continue;
    }
    cur_end = k + 1;
  }
  close_current();
}

}  // namespace

std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const SegmentationOptions& opt,
                                     SegmentationStats* stats) {
  return SegmentTrip(trip, trace::StepDistances(trip.points), opt, stats);
}

std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const std::vector<double>& steps,
                                     const SegmentationOptions& opt,
                                     SegmentationStats* stats) {
  SegmentationStats local;
  local.trips_in = 1;

  // First round: rules 1-4.
  std::vector<Range> segments;
  SplitAtStops(trip.points, steps, {0, trip.points.size()},
               opt.rule1_window_s, opt, &local, 0, &segments);

  // Rule 5: re-split overlong segments with the tighter 1.5-minute
  // window. Each final segment's length is summed once, here.
  std::vector<Range> final_segments;
  std::vector<double> lengths;
  for (const Range& seg : segments) {
    const double length = LengthMeters(steps, seg);
    if (length <= opt.rule5_length_m) {
      final_segments.push_back(seg);
      lengths.push_back(length);
      continue;
    }
    const size_t first_part = final_segments.size();
    SplitAtStops(trip.points, steps, seg, opt.rule5_window_s, opt, &local,
                 4, &final_segments);
    for (size_t k = first_part; k < final_segments.size(); ++k) {
      lengths.push_back(LengthMeters(steps, final_segments[k]));
    }
  }

  std::vector<trace::Trip> out;
  out.reserve(final_segments.size());
  for (size_t k = 0; k < final_segments.size(); ++k) {
    const auto first = trip.points.begin();
    trace::Trip seg;
    seg.trip_id = trace::SegmentTripId(trip.trip_id, static_cast<int64_t>(k));
    seg.car_id = trip.car_id;
    seg.points.assign(
        first + static_cast<ptrdiff_t>(final_segments[k].begin),
        first + static_cast<ptrdiff_t>(final_segments[k].end));
    seg.RecomputeTotals(lengths[k]);
    out.push_back(std::move(seg));
  }
  local.segments_out = static_cast<int64_t>(out.size());
  if (stats != nullptr) {
    for (int r = 0; r < 5; ++r) {
      stats->splits_by_rule[r] += local.splits_by_rule[r];
    }
    stats->trips_in += local.trips_in;
    stats->segments_out += local.segments_out;
  }
  return out;
}

std::vector<trace::Trip> SegmentTrips(const std::vector<trace::Trip>& trips,
                                      const SegmentationOptions& options,
                                      SegmentationStats* stats) {
  std::vector<trace::Trip> out;
  for (const trace::Trip& trip : trips) {
    std::vector<trace::Trip> segments = SegmentTrip(trip, options, stats);
    for (trace::Trip& seg : segments) out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace clean
}  // namespace taxitrace
