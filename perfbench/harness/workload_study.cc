// paper_study: core::Pipeline::Run on the paper-scale study, serially
// and at the pool's worker count. The traced run composes the same
// layers in Pipeline::Run's order from their public functions, then
// runs the study once more through Pipeline::Run's online-ingestion
// path to measure the stream layer.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "taxitrace/analysis/grid.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/model/significance.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "traced_steps.h"

namespace perfbench {
namespace {

namespace core = tt::core;

StudyCounts CountsOf(const core::StudyResults& results) {
  return StudyCounts{results.cleaning_report.clean_segments,
                     static_cast<int64_t>(results.transitions.size()),
                     results.total_point_speeds};
}

// The batch path of Pipeline::Run (stages 1-8), serial, with a span
// around every call into a layer.
StudyCounts RunTracedStudy(const core::StudyConfig& config, Report* report) {
  namespace synth = tt::synth;
  namespace analysis = tt::analysis;
  SpanRecorder* spans = &report->spans;

  const int32_t map_span = spans->Begin("synth.map");
  synth::CityMap map = synth::GenerateCityMap(config.map).value();
  const synth::WeatherModel weather(config.weather_seed,
                                    config.fleet.num_days);
  spans->End(map_span);

  const int32_t sim_span = spans->Begin("synth.simulate");
  const synth::PedestrianModel pedestrians(
      config.fleet.seed + 17, map.hotspots, config.fleet.num_days);
  const synth::FleetSimulator fleet(&map, &weather, config.fleet,
                                    &pedestrians);
  const synth::FleetResult raw = fleet.Run(nullptr).value();
  spans->End(sim_span);

  tt::clean::CleaningReport cleaning;
  std::vector<tt::trace::Trip> cleaned;
  for (const tt::trace::Trip& trip : raw.store.trips()) {
    tt::clean::TripCleanOutput out =
        TracedCleanTrip(trip, config.cleaning, spans);
    tt::clean::FoldTripCleanOutput(out, &cleaning);
    for (tt::trace::Trip& seg : out.segments) cleaned.push_back(std::move(seg));
  }
  int64_t clean_points = 0;
  for (const tt::trace::Trip& t : cleaned) {
    clean_points += static_cast<int64_t>(t.points.size());
  }

  const MatchMachinery machinery(&map, config);
  MatchTally tally;
  std::vector<core::MatchedTransition> transitions;
  for (const tt::trace::Trip& segment : cleaned) {
    core::SegmentMatchOutput out =
        TracedMatchSegment(segment, machinery.context(), spans);
    tally.Add(out);
    for (core::MatchedTransition& mt : out.transitions) {
      transitions.push_back(std::move(mt));
    }
  }

  // Stage 7-8 of Pipeline::Run: grid joins, then the mixed model.
  const int32_t grid_span = spans->Begin("analysis.grid");
  const tt::geo::LocalProjection& proj = map.network.projection();
  const analysis::Grid grid(config.grid_cell_m);
  analysis::CellSpeedAccumulator all_speeds(grid);
  std::unordered_map<std::string, analysis::CellSpeedAccumulator>
      by_direction;
  tt::model::OneWayReml cell_model;
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash>
      cell_group;
  int64_t point_speeds = 0;
  for (const core::MatchedTransition& mt : transitions) {
    auto dir_it = by_direction.find(mt.record.direction);
    if (dir_it == by_direction.end()) {
      dir_it = by_direction
                   .emplace(mt.record.direction,
                            analysis::CellSpeedAccumulator(grid))
                   .first;
    }
    for (const tt::trace::RoutePoint& p : mt.transition.segment.points) {
      const tt::geo::EnPoint local = proj.Forward(p.position);
      all_speeds.Add(local, p.speed_kmh);
      dir_it->second.Add(local, p.speed_kmh);
      const analysis::CellId cell = grid.CellOf(local);
      const auto group_it = cell_group.emplace(cell, cell_group.size()).first;
      cell_model.Add(group_it->second, p.speed_kmh);
      ++point_speeds;
    }
  }
  const auto features = analysis::ComputeCellFeatures(map.network, grid);
  const std::vector<analysis::CellRecord> cells =
      analysis::BuildCellRecords(all_speeds, features);
  for (const auto& entry : by_direction) {
    (void)analysis::BuildCellRecords(entry.second, features);
  }
  spans->End(grid_span);

  const int32_t model_span = spans->Begin("model.reml_fit");
  if (cell_model.num_observations() > 3 && cell_model.num_groups() >= 2) {
    (void)cell_model.Fit().value();
    (void)tt::model::TestRandomEffect(cell_model).value();
  }
  spans->End(model_span);

  std::map<std::string, double>& layer = report->layer;
  layer["synth.trips"] = static_cast<double>(raw.store.NumTrips());
  layer["synth.points"] = static_cast<double>(raw.store.NumPoints());
  layer["clean.points_in"] = static_cast<double>(raw.store.NumPoints());
  layer["clean.points_out"] = static_cast<double>(clean_points);
  layer["clean.segments_out"] = static_cast<double>(cleaned.size());
  layer["odselect.segments_analyzed"] =
      static_cast<double>(tally.segments_analyzed);
  layer["odselect.segments_selected"] =
      static_cast<double>(tally.segments_selected);
  layer["odselect.transitions_examined"] =
      static_cast<double>(tally.transitions_examined);
  layer["odselect.transitions_kept"] =
      static_cast<double>(tally.transitions_kept);
  layer["mapmatch.matches"] = static_cast<double>(tally.matches);
  layer["mapmatch.match_failed"] = static_cast<double>(tally.match_failed);
  layer["mapmatch.route_cache.hits"] = static_cast<double>(tally.cache_hits);
  layer["mapmatch.route_cache.misses"] =
      static_cast<double>(tally.cache_misses);
  layer["mapattr.routes"] = static_cast<double>(transitions.size());
  const tt::roadnet::RouterStats router =
      machinery.matcher().gap_filler().router().stats();
  layer["roadnet.router.searches"] = static_cast<double>(router.searches);
  layer["roadnet.router.heap_pops"] = static_cast<double>(router.heap_pops);
  layer["roadnet.router.settled_vertices"] =
      static_cast<double>(router.settled_vertices);
  const tt::roadnet::SpatialIndexStats index = machinery.index().stats();
  layer["roadnet.spatial_index.queries"] = static_cast<double>(index.queries);
  layer["roadnet.spatial_index.cells_probed"] =
      static_cast<double>(index.cells_probed);
  layer["roadnet.spatial_index.candidates"] =
      static_cast<double>(index.candidates);
  layer["roadnet.spatial_index.hits"] = static_cast<double>(index.hits);
  layer["analysis.point_speeds"] = static_cast<double>(point_speeds);
  layer["analysis.cells"] = static_cast<double>(cells.size());
  layer["model.groups"] = static_cast<double>(cell_model.num_groups());
  layer["model.observations"] =
      static_cast<double>(cell_model.num_observations());

  return StudyCounts{static_cast<int64_t>(cleaned.size()),
                     static_cast<int64_t>(transitions.size()), point_speeds};
}

// Arrival displacement of the ingested streams and the watermark lag;
// the displacement fits the lossless bound (lag / 2).
constexpr int64_t kShuffleWindow = 32;
constexpr int64_t kReorderLag = 64;

// The study through Pipeline::Run's online-ingestion stage, serially:
// every car's trace replayed as a shuffled arrival stream through an
// IngestSession that cleans and matches each window as it closes.
// Records the stream layer's metrics and gates the run against the
// batch digest.
void RunIngestStudy(core::StudyConfig config, const std::string& batch_digest,
                    Report* report) {
  config.num_threads = 0;
  config.stream_ingestion = true;
  config.ingest.reorder_lag = kReorderLag;
  config.ingest.arrival_shuffle_window = kShuffleWindow;
  ++report->tallies["studies"];
  const tt::Result<core::StudyResults> run = core::Pipeline(config).Run();
  if (!run.ok()) {
    ++report->tallies["studies_failed"];
    report->AddGate("ingest_study_ok", false, run.status().ToString());
    return;
  }
  const tt::stream::IngestStats& s = run->ingest_stats;
  const int64_t lost = s.points_dropped_late + s.trip_markers_dropped_late +
                       s.slots_declared_lost;
  report->AddGate("ingest_nothing_lost", lost == 0,
                  std::to_string(lost) + " records dropped or lost");
  report->AddGate("ingest_digest_equals_batch",
                  core::StudyDigestJson(*run) == batch_digest,
                  "the online-ingestion study's digest differs from batch");
  const double ingest_s = run->timings.stream_ingest_ms / 1e3;
  std::map<std::string, double>& layer = report->layer;
  layer["stream.ingest_s"] = ingest_s;
  layer["stream.ingest_points_per_s"] =
      static_cast<double>(s.points_released) / ingest_s;
  layer["stream.records_offered"] =
      static_cast<double>(s.points_offered + s.trip_markers_offered);
  layer["stream.points_released"] = static_cast<double>(s.points_released);
  layer["stream.points_dropped_late"] =
      static_cast<double>(s.points_dropped_late);
  layer["stream.windows_closed"] = static_cast<double>(s.windows_closed);
  layer["stream.peak_buffered_records"] =
      static_cast<double>(s.peak_buffered_records);
  layer["stream.lag_slots_p99"] =
      static_cast<double>(tt::stream::IngestLatencyQuantile(s, 0.99));
}

}  // namespace

void RunStudyWorkload(const RunOptions& options, Report* report) {
  core::StudyConfig config = core::StudyConfig::FullStudy();
  config.weather_seed = ProgramSeed(config.weather_seed, options.seed);
  report->program_seed = config.weather_seed;

  // Set-up: the batch job itself needs none, so set-up is a serial
  // warm-up run of the whole fleet over a fifth of the year (same code
  // paths, ~20% of the points; long enough to average out short stalls
  // of a shared host).
  core::StudyConfig warm = config;
  warm.fleet.num_days = 73;
  warm.num_threads = 0;
  bool warm_ok = true;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    warm_ok = warm_ok && core::Pipeline(warm).Run().ok();
    report->setup_s.push_back(SecondsSince(t0));
  }
  report->AddGate("setup_study_ok", warm_ok);

  report->tallies["studies_failed"] = 0;
  std::string reference_digest;
  StudyCounts reference_counts;
  bool digests_equal = true;
  const auto run_study = [&](int threads, std::vector<double>* times) {
    config.num_threads = threads;
    const Clock::time_point t0 = Clock::now();
    tt::Result<core::StudyResults> run = core::Pipeline(config).Run();
    const double seconds = SecondsSince(t0);
    ++report->tallies["studies"];
    if (!run.ok()) {
      ++report->tallies["studies_failed"];
      return;
    }
    times->push_back(seconds);
    const std::string digest = core::StudyDigestJson(*run);
    if (reference_digest.empty()) {
      reference_digest = digest;
      reference_counts = CountsOf(*run);
    } else if (digest != reference_digest) {
      digests_equal = false;
    }
  };

  if (!options.trace) {
    RunPasses(options.seconds, 2, [&](int) {
      run_study(0, &report->serial_s);
      run_study(options.workers, &report->parallel_s);
    });
    for (double s : report->parallel_s) report->latency_ms.push_back(s * 1e3);
  } else {
    run_study(0, &report->serial_s);
    run_study(options.workers, &report->parallel_s);
    config.num_threads = 0;
    report->spans.Enable();
    const Clock::time_point t0 = Clock::now();
    const StudyCounts traced = RunTracedStudy(config, report);
    report->traced_total_s = SecondsSince(t0);
    report->AddGate("traced_counts_equal_untraced",
                    traced == reference_counts,
                    "traced " + ToString(traced) + " untraced " +
                        ToString(reference_counts));
    RunIngestStudy(config, reference_digest, report);
  }
  report->AddGate("serial_parallel_digests_equal",
                  digests_equal && !reference_digest.empty());
  report->digests["paper_study"] = reference_digest;
}

}  // namespace perfbench
