#include "traced_steps.h"

#include <utility>

#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/analysis/speed_categories.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/mapmatch/route_cache.h"
#include "taxitrace/odselect/transition_filter.h"
#include "taxitrace/trace/route_point.h"

namespace perfbench {
namespace {

std::vector<tt::odselect::OdGate> MakeGates(
    const tt::synth::CityMap& map, const tt::core::StudyConfig& config) {
  std::vector<tt::odselect::OdGate> gates;
  for (const tt::synth::GateRoad& g : map.gates) {
    gates.emplace_back(g.name, g.geometry, config.gate);
  }
  return gates;
}

}  // namespace

MatchMachinery::MatchMachinery(const tt::synth::CityMap* map,
                               const tt::core::StudyConfig& config)
    : gates_(MakeGates(*map, config)),
      extractor_(gates_, map->network.projection()),
      index_(&map->network),
      matcher_(&map->network, &index_, config.matcher),
      fetcher_(&map->network, config.attributes) {
  for (const tt::odselect::OdGate& g : gates_) {
    gate_by_name_.emplace(g.name(), &g);
  }
  context_.extractor = &extractor_;
  context_.gate_by_name = &gate_by_name_;
  context_.matcher = &matcher_;
  context_.fetcher = &fetcher_;
  context_.network = &map->network;
  context_.central_area = &map->central_area;
  context_.projection = &map->network.projection();
  context_.region = map->network.Bounds().Inflated(300.0);
  context_.transition_filter = &config.transition_filter;
  context_.speed = &config.speed;
  context_.route_cache_capacity = config.matcher.gap.route_cache_capacity;
}

tt::clean::TripCleanOutput TracedCleanTrip(
    tt::trace::Trip trip, const tt::clean::CleaningOptions& options,
    SpanRecorder* spans) {
  namespace clean = tt::clean;
  const int64_t tag = trip.trip_id;
  clean::TripCleanOutput out;
  clean::SanitizeTrip(&trip, options.sanitize, &out.faults);
  out.points_after_sanitize = static_cast<int64_t>(trip.points.size());
  if (options.sanitize.enabled && trip.points.empty()) {
    ++out.faults.trips_dropped_empty;
    return out;
  }
  {
    ScopedSpan span(spans, "clean.order_repair", tag);
    clean::RepairTripOrder(&trip, &out.order);
  }
  {
    ScopedSpan span(spans, "clean.outlier_filter", tag);
    clean::FilterTripOutliers(&trip, options.outliers, &out.outliers);
  }
  out.points_after_outliers = static_cast<int64_t>(trip.points.size());
  if (options.restore_lost_points) {
    clean::RestoreTripLostPoints(&trip, options.interpolation,
                                 &out.interpolation);
  }
  std::vector<tt::trace::Trip> segments;
  {
    ScopedSpan span(spans, "clean.segmentation", tag);
    segments = clean::SegmentTrip(trip, options.segmentation,
                                  &out.segmentation);
  }
  {
    ScopedSpan span(spans, "clean.trip_filter", tag);
    out.segments =
        clean::FilterTrips(std::move(segments), options.filter, &out.filter);
  }
  return out;
}

tt::core::SegmentMatchOutput TracedMatchSegment(
    const tt::trace::Trip& segment,
    const tt::core::SegmentMatchContext& context, SpanRecorder* spans) {
  namespace odselect = tt::odselect;
  const int64_t tag = segment.trip_id;
  tt::core::SegmentMatchOutput out;
  tt::mapmatch::RouteCache route_cache(context.route_cache_capacity);

  odselect::TripGateAnalysis analysis;
  {
    ScopedSpan span(spans, "odselect.analyze", tag);
    analysis = context.extractor->Analyze(segment);
  }
  if (!analysis.crosses_gate_at_angle ||
      analysis.distinct_gates_crossed < 2) {
    return out;
  }
  ++out.filtered_cleaned;

  for (const odselect::Transition& transition : analysis.transitions) {
    ++out.transitions_examined;
    if (!odselect::IsSelectedDirection(transition,
                                       *context.transition_filter)) {
      ++out.dropped_direction;
      continue;
    }
    ++out.transitions_total;
    if (!odselect::IsWithinCentralArea(transition, *context.central_area,
                                       context.region, *context.projection,
                                       *context.transition_filter)) {
      ++out.dropped_outside_central;
      continue;
    }
    ++out.transitions_central;

    tt::Result<tt::mapmatch::MatchedRoute> route =
        tt::Status::Internal("not matched");
    {
      ScopedSpan span(spans, "mapmatch.match", tag);
      route = context.matcher->Match(transition.segment, &route_cache);
    }
    if (!route.ok()) {
      ++out.dropped_match_failed;
      continue;
    }

    const auto origin_it = context.gate_by_name->find(transition.origin);
    const auto dest_it = context.gate_by_name->find(transition.destination);
    if (origin_it == context.gate_by_name->end() ||
        dest_it == context.gate_by_name->end()) {
      ++out.dropped_unknown_gate;
      continue;
    }
    if (!odselect::PassesEndpointPostFilter(
            route->geometry, *origin_it->second, *dest_it->second,
            *context.transition_filter)) {
      ++out.dropped_endpoint_filter;
      continue;
    }
    ++out.post_filtered;

    tt::core::MatchedTransition mt{transition, std::move(*route), {}};
    {
      ScopedSpan span(spans, "analysis.transition_record", tag);
      mt.record.trip_id = transition.segment.trip_id;
      mt.record.car_id = transition.segment.car_id;
      mt.record.direction = transition.Label();
      mt.record.start_time_s = transition.segment.StartTime();
      mt.record.route_time_h =
          tt::trace::TimeSpanSeconds(transition.segment.points) / 3600.0;
      mt.record.route_distance_km = mt.route.length_m / 1000.0;
      mt.record.low_speed_share =
          tt::analysis::LowSpeedShare(transition.segment, *context.speed);
      mt.record.normal_speed_share = tt::analysis::NormalSpeedShare(
          transition.segment, mt.route, *context.network, *context.speed);
      double fuel = 0.0;
      for (size_t k = 1; k < transition.segment.points.size(); ++k) {
        fuel += transition.segment.points[k].fuel_delta_ml;
      }
      mt.record.fuel_ml = fuel;
    }
    {
      ScopedSpan span(spans, "mapattr.fetch", tag);
      mt.record.attributes = context.fetcher->Fetch(mt.route);
    }
    out.transitions.push_back(std::move(mt));
  }
  out.cache_hits = route_cache.stats().hits;
  out.cache_misses = route_cache.stats().misses;
  out.cache_evictions = route_cache.stats().evictions;
  return out;
}

std::string ToString(const StudyCounts& counts) {
  return tt::StrFormat("segments=%lld transitions=%lld point_speeds=%lld",
                       static_cast<long long>(counts.segments),
                       static_cast<long long>(counts.transitions),
                       static_cast<long long>(counts.point_speeds));
}

void MatchTally::Add(const tt::core::SegmentMatchOutput& out) {
  ++segments_analyzed;
  segments_selected += out.filtered_cleaned;
  transitions_examined += out.transitions_examined;
  transitions_kept += out.post_filtered;
  matches += out.transitions_central - out.dropped_match_failed;
  match_failed += out.dropped_match_failed;
  cache_hits += out.cache_hits;
  cache_misses += out.cache_misses;
  for (const tt::core::MatchedTransition& mt : out.transitions) {
    point_speeds +=
        static_cast<int64_t>(mt.transition.segment.points.size());
  }
}

void MatchTally::Add(const MatchTally& other) {
  segments_analyzed += other.segments_analyzed;
  segments_selected += other.segments_selected;
  transitions_examined += other.transitions_examined;
  transitions_kept += other.transitions_kept;
  matches += other.matches;
  match_failed += other.match_failed;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  point_speeds += other.point_speeds;
}

}  // namespace perfbench
