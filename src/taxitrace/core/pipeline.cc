#include "taxitrace/core/pipeline.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taxitrace/analysis/grid.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/random.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/core/study_observability.h"
#include "taxitrace/fault/fault_injector.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trace_io.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace core {
namespace {

/// The fault plan as one store transform ahead of either source:
/// corrupt trips, optionally round-trip them through a corrupted CSV
/// file, rebuild the store, and gate the cleaner with the sanitiser.
/// Injection is serial and draws per trip id / per CSV row, so the
/// corrupted store is identical at any thread count.
Status ApplyFaultPlan(const fault::FaultPlan& plan,
                      const roadnet::RoadNetwork& network,
                      trace::TraceStore* store, RawTraceCounts* raw,
                      clean::CleaningOptions* cleaning) {
  const fault::FaultInjector injector(plan);
  std::vector<trace::Trip> trips = store->trips();
  injector.CorruptTrips(&trips, &raw->injected);
  if (plan.AnyFileFaults()) {
    // Serialise, corrupt rows, and read back with the lenient parser
    // that drops what it cannot understand.
    const std::string csv =
        injector.CorruptCsv(trace::TripsToCsv(trips), &raw->injected);
    TAXITRACE_ASSIGN_OR_RETURN(
        trips, trace::TripsFromCsvLenient(csv, &raw->io_stats));
    raw->injected.rows_dropped_malformed +=
        raw->io_stats.rows_dropped_malformed;
    raw->injected.rows_dropped_non_utf8 += raw->io_stats.rows_dropped_non_utf8;
  }
  raw->trips_before_rebuild = static_cast<int64_t>(trips.size());
  TAXITRACE_ASSIGN_OR_RETURN(
      *store,
      fault::RebuildStoreDroppingDuplicates(std::move(trips), &raw->injected));

  // The geographic gate is the network's bounds inflated by 5 km, which
  // dwarfs legitimate GPS scatter (sensor outliers jump ~450 m), so only
  // truly wild fixes — swapped coordinates, garbage parses — fall out.
  clean::SanitizeOptions& sanitize = cleaning->sanitize;
  sanitize.enabled = true;
  sanitize.has_region = true;
  const geo::Bbox box = network.Bounds().Inflated(5000.0);
  const geo::LatLon lo =
      network.projection().Inverse(geo::EnPoint{box.min_x, box.min_y});
  const geo::LatLon hi =
      network.projection().Inverse(geo::EnPoint{box.max_x, box.max_y});
  sanitize.lat_min_deg = std::min(lo.lat_deg, hi.lat_deg);
  sanitize.lat_max_deg = std::max(lo.lat_deg, hi.lat_deg);
  sanitize.lon_min_deg = std::min(lo.lon_deg, hi.lon_deg);
  sanitize.lon_max_deg = std::max(lo.lon_deg, hi.lon_deg);
  return Status::OK();
}

/// One raw trip through the per-trip unit: its cleaning counters and,
/// per surviving segment, the segment's point count and its selection +
/// matching output. The segments die inside the unit; the fold only
/// needs their sizes.
struct TripOutput {
  int car_id = 0;
  clean::TripCleanOutput clean;
  std::vector<int64_t> segment_points;
  std::vector<SegmentMatchOutput> matches;
};

/// The per-trip unit of work: clean::CleanOneTrip, then MatchSegment on
/// every surviving segment. Reads only shared read-only state, so any
/// number of units may run concurrently.
struct TripUnit {
  const clean::CleaningOptions* cleaning = nullptr;
  const SegmentMatchContext* context = nullptr;

  TripOutput operator()(trace::Trip raw) const {
    TripOutput out;
    out.car_id = raw.car_id;
    out.clean = clean::CleanOneTrip(std::move(raw), *cleaning);
    for (const trace::Trip& segment : out.clean.segments) {
      out.segment_points.push_back(
          static_cast<int64_t>(segment.points.size()));
      out.matches.push_back(MatchSegment(segment, *context));
    }
    out.clean.segments.clear();
    return out;
  }
};

/// The batch source: the unit over every store trip in one ParallelFor,
/// outputs in store order.
Result<std::vector<TripOutput>> RunBatchSource(const trace::TraceStore& store,
                                               const TripUnit& unit,
                                               const Executor& executor) {
  const std::vector<trace::Trip>& trips = store.trips();
  std::vector<TripOutput> outputs(trips.size());
  TAXITRACE_RETURN_IF_ERROR(executor.ParallelFor(
      0, static_cast<int64_t>(trips.size()), [&](int64_t i) -> Status {
        outputs[static_cast<size_t>(i)] = unit(trips[static_cast<size_t>(i)]);
        return Status::OK();
      }));
  return outputs;
}

/// The ingest source: each car's trace replayed as an arrival stream —
/// optionally shuffled by a bounded displacement — through an
/// IngestSession that runs the unit on every window (container trip) as
/// it closes. One session per car, one car per work item; sessions
/// share no state. Outputs come back in store order: each store trip
/// takes its car's next window when the trip ids agree (per-car release
/// order is per-car store order). A store trip lost wholesale in
/// ingestion is skipped; its records are the funnel's ingest drops.
/// Windows matching no store trip cannot arise from the canonical
/// source, but work is never dropped silently: they follow in car order.
Result<std::vector<TripOutput>> RunIngestSource(
    const trace::TraceStore& store, const stream::IngestOptions& options,
    const TripUnit& unit, const Executor& executor,
    stream::IngestStats* stats) {
  struct WindowSink final : public trace::TripSink {
    const TripUnit* unit = nullptr;
    std::vector<std::pair<int64_t, TripOutput>> windows;
    stream::IngestStats stats;
    Status Consume(trace::Trip trip) override {
      const int64_t trip_id = trip.trip_id;
      windows.emplace_back(trip_id, (*unit)(std::move(trip)));
      return Status::OK();
    }
  };
  const std::vector<int> car_ids = store.CarIds();
  std::vector<WindowSink> cars(car_ids.size());
  const Status status = executor.ParallelFor(
      0, static_cast<int64_t>(car_ids.size()), [&](int64_t ci) -> Status {
        const int car_id = car_ids[static_cast<size_t>(ci)];
        WindowSink& sink = cars[static_cast<size_t>(ci)];
        sink.unit = &unit;
        stream::CarStream arrivals = stream::BuildCarStream(store, car_id);
        if (options.arrival_shuffle_window > 0) {
          stream::ShuffleArrivals(
              &arrivals.records,
              MixSeed(options.arrival_shuffle_seed,
                      static_cast<uint64_t>(car_id), 0),
              options.arrival_shuffle_window);
        }
        stream::IngestSession session(car_id, options, &sink);
        for (const stream::StreamRecord& rec : arrivals.records) {
          TAXITRACE_RETURN_IF_ERROR(session.Ingest(rec));
        }
        TAXITRACE_RETURN_IF_ERROR(session.FinishStream());
        sink.stats = session.stats();
        return Status::OK();
      });
  if (!status.ok()) return status;

  std::vector<TripOutput> outputs;
  std::vector<size_t> next(cars.size(), 0);
  for (const trace::Trip& trip : store.trips()) {
    const auto c = static_cast<size_t>(
        std::lower_bound(car_ids.begin(), car_ids.end(), trip.car_id) -
        car_ids.begin());
    auto& windows = cars[c].windows;
    if (next[c] < windows.size() && windows[next[c]].first == trip.trip_id) {
      outputs.push_back(std::move(windows[next[c]++].second));
    }
  }
  for (size_t c = 0; c < cars.size(); ++c) {
    stats->Add(cars[c].stats);
    for (; next[c] < cars[c].windows.size(); ++next[c]) {
      outputs.push_back(std::move(cars[c].windows[next[c]].second));
    }
  }
  return outputs;
}

/// The one fold: walks the unit's outputs in order and builds the
/// cleaning report, Table 3, the transitions and the match report, and
/// returns the selection totals over every segment (a
/// SegmentMatchOutput's counters, without transitions) that the funnel
/// and the counters read. Every value is a deterministic count or an
/// ordered sum, so the results are byte-identical at any worker count
/// and from either source.
SegmentMatchOutput FoldTripOutputs(std::vector<TripOutput> outputs,
                                   int num_cars,
                                   obs::HistogramMetric* points_per_segment,
                                   StudyResults* results) {
  SegmentMatchOutput sel;
  clean::CleaningReport& report = results->cleaning_report;
  std::unordered_map<int, odselect::Table3Row> rows_by_car;
  for (TripOutput& trip : outputs) {
    clean::FoldTripCleanOutput(trip.clean, &report);
    odselect::Table3Row& row = rows_by_car[trip.car_id];
    for (size_t k = 0; k < trip.matches.size(); ++k) {
      ++report.clean_segments;
      report.clean_points += trip.segment_points[k];
      if (points_per_segment != nullptr) {
        points_per_segment->Record(static_cast<double>(trip.segment_points[k]));
      }
      SegmentMatchOutput& out = trip.matches[k];
      ++row.segments_total;
      row.filtered_cleaned += out.filtered_cleaned;
      row.transitions_total += out.transitions_total;
      row.transitions_central += out.transitions_central;
      row.post_filtered += out.post_filtered;
      sel.filtered_cleaned += out.filtered_cleaned;
      sel.transitions_examined += out.transitions_examined;
      sel.post_filtered += out.post_filtered;
      sel.dropped_direction += out.dropped_direction;
      sel.dropped_outside_central += out.dropped_outside_central;
      sel.dropped_match_failed += out.dropped_match_failed;
      sel.dropped_unknown_gate += out.dropped_unknown_gate;
      sel.dropped_endpoint_filter += out.dropped_endpoint_filter;
      sel.cache_hits += out.cache_hits;
      sel.cache_misses += out.cache_misses;
      sel.cache_evictions += out.cache_evictions;
      for (MatchedTransition& mt : out.transitions) {
        results->match_report.Add(mt.route);
        results->transitions.push_back(std::move(mt));
      }
    }
  }
  for (int car = 1; car <= num_cars; ++car) {
    odselect::Table3Row row = rows_by_car[car];
    row.car_id = car;
    results->table3.push_back(row);
  }
  return sel;
}

/// The analysis stage: grid statistics over every transition point
/// speed in transition order, the cell joins, the seasonal aggregates
/// and the Eq. (3) mixed model.
Status RunAnalysis(double grid_cell_m, obs::MetricsRegistry* metrics,
                   StudyResults* results) {
  results->grid_cell_m = grid_cell_m;
  const geo::LocalProjection& proj = results->map.network.projection();
  const analysis::Grid grid(grid_cell_m);
  analysis::CellSpeedAccumulator all_speeds(grid);
  std::unordered_map<std::string, analysis::CellSpeedAccumulator>
      by_direction;
  model::OneWayReml cell_model;
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash>
      cell_group;
  double speed_sum = 0.0;
  double season_sum[analysis::kNumSeasons] = {};
  int64_t season_n[analysis::kNumSeasons] = {};
  obs::HistogramMetric* speed_hist =
      metrics != nullptr
          ? metrics->histogram("analysis.point_speed_kmh", 0.0, 120.0, 60)
          : nullptr;

  for (const MatchedTransition& mt : results->transitions) {
    auto dir_it = by_direction.find(mt.record.direction);
    if (dir_it == by_direction.end()) {
      dir_it = by_direction
                   .emplace(mt.record.direction,
                            analysis::CellSpeedAccumulator(grid))
                   .first;
    }
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      const geo::EnPoint local = proj.Forward(p.position);
      all_speeds.Add(local, p.speed_kmh);
      dir_it->second.Add(local, p.speed_kmh);

      const analysis::CellId cell = grid.CellOf(local);
      auto [group_it, inserted] =
          cell_group.emplace(cell, results->model_cells.size());
      if (inserted) results->model_cells.push_back(cell);
      cell_model.Add(group_it->second, p.speed_kmh);

      ++results->total_point_speeds;
      speed_sum += p.speed_kmh;
      if (speed_hist != nullptr) speed_hist->Record(p.speed_kmh);
      const int season =
          static_cast<int>(analysis::SeasonOfTimestamp(p.timestamp_s));
      season_sum[season] += p.speed_kmh;
      ++season_n[season];
    }
  }
  const double overall =
      results->total_point_speeds > 0
          ? speed_sum / static_cast<double>(results->total_point_speeds)
          : 0.0;
  results->overall_mean_speed_kmh = overall;
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    SeasonalSpeed& season = results->seasonal[s];
    season.n = season_n[s];
    season.mean_kmh =
        season_n[s] > 0 ? season_sum[s] / static_cast<double>(season_n[s])
                        : 0.0;
    season.delta_kmh = season_n[s] > 0 ? season.mean_kmh - overall : 0.0;
  }

  results->cell_features = ComputeCellFeatures(results->map.network, grid);
  results->cells = BuildCellRecords(all_speeds, results->cell_features);
  for (const auto& [direction, acc] : by_direction) {
    results->cells_by_direction[direction] =
        BuildCellRecords(acc, results->cell_features);
  }
  if (cell_model.num_observations() > 3 && cell_model.num_groups() >= 2) {
    TAXITRACE_ASSIGN_OR_RETURN(results->cell_model, cell_model.Fit());
    TAXITRACE_ASSIGN_OR_RETURN(results->geography_lrt,
                               model::TestRandomEffect(cell_model));
  }
  return Status::OK();
}

}  // namespace

std::vector<analysis::TransitionRecord> StudyResults::Records() const {
  std::vector<analysis::TransitionRecord> out;
  out.reserve(transitions.size());
  for (const MatchedTransition& mt : transitions) out.push_back(mt.record);
  return out;
}

Pipeline::Pipeline(StudyConfig config) : config_(std::move(config)) {}

Result<StudyResults> Pipeline::Run() const {
  TAXITRACE_RETURN_IF_ERROR(stream::ValidateIngestOptions(config_.ingest));
  // The span trace is always kept: a handful of records per run, and
  // what StageTimings reads. The registry and the funnel ledger only
  // come to life on an observability run; otherwise no metric is ever
  // touched and StudyResults::observability stays default-empty.
  const bool collect = config_.observability.enabled;
  obs::Trace trace;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = collect ? &registry : nullptr;
  // One worker pool for every parallel stage. 0 threads = serial
  // inline execution; either way the merged outputs are byte-identical.
  const Executor executor(Executor::ResolveThreadCount(config_.num_threads));

  // 1. Substrates: city map and weather.
  obs::StageSpan map_span(&trace, "map_generation");
  TAXITRACE_ASSIGN_OR_RETURN(synth::CityMap map,
                             synth::GenerateCityMap(config_.map));
  synth::WeatherModel weather(config_.weather_seed, config_.fleet.num_days);
  map_span.AddItems(static_cast<int64_t>(map.network.num_edges()));
  map_span.Finish();

  // 2. Raw traces, then the fault plan as a store transform.
  obs::StageSpan sim_span(&trace, "simulation");
  synth::PedestrianModel pedestrians(config_.fleet.seed + 17, map.hotspots,
                                     config_.fleet.num_days);
  const synth::FleetSimulator fleet(&map, &weather, config_.fleet,
                                    &pedestrians);
  TAXITRACE_ASSIGN_OR_RETURN(synth::FleetResult simulated,
                             fleet.Run(&executor));
  trace::TraceStore store = std::move(simulated.store);
  RawTraceCounts raw;
  raw.trips_simulated = static_cast<int64_t>(store.NumTrips());
  raw.points_simulated = static_cast<int64_t>(store.NumPoints());
  raw.trips_before_rebuild = raw.trips_simulated;
  StudyResults results(std::move(map), std::move(weather),
                       std::move(pedestrians));
  clean::CleaningOptions cleaning = config_.cleaning;
  if (config_.faults.Any()) {
    obs::StageSpan fault_span(&trace, "fault_injection");
    TAXITRACE_RETURN_IF_ERROR(ApplyFaultPlan(
        config_.faults, results.map.network, &store, &raw, &cleaning));
    fault_span.AddItems(raw.injected.TotalInjected());
  }
  results.raw_trips = static_cast<int64_t>(store.NumTrips());
  sim_span.AddItems(raw.trips_simulated);
  sim_span.Finish();

  // 3. The per-trip unit over one source, then the one fold.
  obs::StageSpan clean_match_span(&trace, "clean_match");
  const MatchMachinery machinery(results.map, config_);
  const TripUnit unit{&cleaning, &machinery.context};
  std::vector<TripOutput> outputs;
  clean::CleaningReport& report = results.cleaning_report;
  if (config_.stream_ingestion) {
    obs::StageSpan ingest_span(&trace, "stream_ingestion");
    TAXITRACE_ASSIGN_OR_RETURN(
        outputs, RunIngestSource(store, config_.ingest, unit, executor,
                                 &results.ingest_stats));
    const stream::IngestStats& ing = results.ingest_stats;
    ingest_span.AddItems(ing.points_offered + ing.trip_markers_offered);
    report.raw_trips = ing.windows_closed;
    report.raw_points = ing.points_released;
  } else {
    TAXITRACE_ASSIGN_OR_RETURN(outputs,
                               RunBatchSource(store, unit, executor));
    report.raw_trips = results.raw_trips;
    report.raw_points = static_cast<int64_t>(store.NumPoints());
  }
  const SegmentMatchOutput selection = FoldTripOutputs(
      std::move(outputs), config_.fleet.num_cars,
      metrics != nullptr
          ? metrics->histogram("clean.points_per_segment", 0.0, 400.0, 40)
          : nullptr,
      &results);
  const fault::FaultReport clean_faults = report.faults;
  report.faults.Add(raw.injected);
  clean_match_span.AddItems(report.raw_trips);
  clean_match_span.Finish();

  // 4. Grid statistics and the mixed model.
  obs::StageSpan analysis_span(&trace, "analysis");
  TAXITRACE_RETURN_IF_ERROR(
      RunAnalysis(config_.grid_cell_m, metrics, &results));
  analysis_span.AddItems(results.total_point_speeds);
  analysis_span.Finish();

  if (collect) {
    obs::FunnelLedger funnel =
        BuildStudyFunnel(config_, raw, clean_faults, selection, results);
    TAXITRACE_RETURN_IF_ERROR(funnel.CheckReconciles());
    PublishStudyMetrics(config_, raw, selection, machinery, executor,
                        results, &registry);
    results.observability.enabled = true;
    results.observability.funnel = std::move(funnel);
    results.observability.counters = registry.Counters();
    results.observability.gauges = registry.Gauges();
    results.observability.histograms = registry.Histograms();
    results.observability.spans = trace.records();
  }

  StageTimings& timings = results.timings;
  timings.threads = executor.num_threads();
  for (const obs::SpanRecord& r : trace.records()) {
    if (r.name == "map_generation") timings.map_generation_ms = r.duration_ms;
    if (r.name == "simulation") timings.simulation_ms = r.duration_ms;
    if (r.name == "clean_match") timings.clean_match_ms = r.duration_ms;
    if (r.name == "stream_ingestion") timings.stream_ingest_ms = r.duration_ms;
    if (r.name == "analysis") timings.analysis_ms = r.duration_ms;
  }
  return results;
}

}  // namespace core
}  // namespace taxitrace
