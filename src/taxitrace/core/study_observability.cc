#include "taxitrace/core/study_observability.h"

#include <initializer_list>
#include <utility>

#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace core {
namespace {

using Counts = std::initializer_list<std::pair<const char*, int64_t>>;

void AddFunnelStage(obs::FunnelLedger* ledger, const char* name,
                    const char* unit, int64_t in, int64_t out,
                    Counts drops = {}) {
  obs::FunnelStage& s = ledger->AddStage(name, unit);
  s.in = in;
  s.out = out;
  for (const auto& [reason, count] : drops) s.Drop(reason, count);
}

}  // namespace

obs::FunnelLedger BuildStudyFunnel(const StudyConfig& config,
                                   const RawTraceCounts& raw,
                                   const fault::FaultReport& clean_faults,
                                   const SegmentMatchOutput& sel,
                                   const StudyResults& results) {
  obs::FunnelLedger ledger;
  const clean::CleaningReport& cr = results.cleaning_report;
  const stream::IngestStats& ing = results.ingest_stats;
  AddFunnelStage(&ledger, "trips.simulated", "trips", raw.trips_simulated,
                 raw.trips_simulated);
  AddFunnelStage(&ledger, "points.simulated", "points", raw.points_simulated,
                 raw.points_simulated);
  if (config.faults.Any()) {
    if (config.faults.AnyFileFaults()) {
      const trace::TraceIoStats& io = raw.io_stats;
      AddFunnelStage(
          &ledger, "rows.csv_lenient_parse", "rows", io.rows_total,
          io.rows_total - io.rows_dropped_malformed - io.rows_dropped_non_utf8,
          {{"malformed", io.rows_dropped_malformed},
           {"non_utf8", io.rows_dropped_non_utf8}});
    }
    AddFunnelStage(
        &ledger, "trips.store_rebuild", "trips", raw.trips_before_rebuild,
        results.raw_trips,
        {{"duplicate_id", raw.injected.trips_dropped_duplicate_id}});
  }
  if (config.stream_ingestion) {
    // Every point record offered is released or dropped as a counted
    // late arrival; every window opened (by marker or implicitly)
    // closes by end of stream.
    AddFunnelStage(&ledger, "points.ingested", "points", ing.points_offered,
                   ing.points_released,
                   {{"late_arrival", ing.points_dropped_late}});
    AddFunnelStage(&ledger, "windows.closed", "windows",
                   ing.trip_markers_offered + ing.windows_opened_implicit,
                   ing.windows_closed,
                   {{"marker_late_arrival", ing.trip_markers_dropped_late}});
  }
  AddFunnelStage(&ledger, "trips.cleaning", "trips", cr.raw_trips,
                 cr.segmentation.trips_in,
                 {{"empty", clean_faults.trips_dropped_empty}});
  AddFunnelStage(
      &ledger, "points.sanitize", "points", cr.raw_points,
      cr.points_after_sanitize,
      {{"nonfinite", clean_faults.points_dropped_nonfinite},
       {"foreign_trip", clean_faults.points_dropped_foreign},
       {"negative_speed", clean_faults.points_dropped_negative_speed},
       {"out_of_region", clean_faults.points_dropped_out_of_region},
       {"clock_jump", clean_faults.points_dropped_clock_jump}});
  AddFunnelStage(&ledger, "points.outlier_filter", "points",
                 cr.points_after_sanitize, cr.points_after_outliers,
                 {{"duplicate", cr.outliers.duplicates_removed},
                  {"spike", cr.outliers.spikes_removed},
                  {"implied_speed", cr.outliers.implied_speed_removed}});
  AddFunnelStage(&ledger, "segments.filter", "segments",
                 cr.segmentation.segments_out, cr.filter.kept,
                 {{"too_few_points", cr.filter.removed_too_few_points},
                  {"too_long", cr.filter.removed_too_long}});
  if (config.stream_ingestion) {
    // Every segment surviving a window's cleaning went straight to the
    // matcher, with no buffering between.
    AddFunnelStage(&ledger, "segments.emitted_online", "segments",
                   cr.clean_segments, cr.clean_segments);
  }
  AddFunnelStage(
      &ledger, "segments.gate_selection", "segments", cr.clean_segments,
      sel.filtered_cleaned,
      {{"no_gate_crossing", cr.clean_segments - sel.filtered_cleaned}});
  AddFunnelStage(&ledger, "transitions.selection", "transitions",
                 sel.transitions_examined, sel.post_filtered,
                 {{"direction_not_selected", sel.dropped_direction},
                  {"outside_central_area", sel.dropped_outside_central},
                  {"match_failed", sel.dropped_match_failed},
                  {"unknown_gate", sel.dropped_unknown_gate},
                  {"endpoint_filter", sel.dropped_endpoint_filter}});
  return ledger;
}

void PublishStudyMetrics(const StudyConfig& config, const RawTraceCounts& raw,
                         const SegmentMatchOutput& sel,
                         const MatchMachinery& machinery,
                         const Executor& executor, const StudyResults& results,
                         obs::MetricsRegistry* registry) {
  const clean::CleaningReport& cr = results.cleaning_report;
  const roadnet::SpatialIndexStats idx = machinery.index.stats();
  const roadnet::RouterStats rt =
      machinery.matcher.gap_filler().router().stats();
  const auto add = [registry](Counts counts) {
    for (const auto& [name, value] : counts) {
      registry->counter(name)->Add(value);
    }
  };
  add({{"clean.raw_trips", cr.raw_trips},
       {"clean.raw_points", cr.raw_points},
       {"clean.points_after_sanitize", cr.points_after_sanitize},
       {"clean.points_after_outliers", cr.points_after_outliers},
       {"clean.duplicates_removed", cr.outliers.duplicates_removed},
       {"clean.spikes_removed", cr.outliers.spikes_removed},
       {"clean.implied_speed_removed", cr.outliers.implied_speed_removed},
       {"clean.segments_out", cr.clean_segments},
       {"clean.points_out", cr.clean_points},
       {"roadnet.spatial_index.queries", idx.queries},
       {"roadnet.spatial_index.cells_probed", idx.cells_probed},
       {"roadnet.spatial_index.candidates", idx.candidates},
       {"roadnet.spatial_index.hits", idx.hits},
       {"roadnet.spatial_index.empty_geometry_edges",
        idx.empty_geometry_edges},
       {"roadnet.router.searches", rt.searches},
       {"roadnet.router.heap_pops", rt.heap_pops},
       {"roadnet.router.settled_vertices", rt.settled_vertices},
       {"roadnet.router.goal_directed_searches", rt.goal_directed_searches},
       {"mapmatch.route_cache.hits", sel.cache_hits},
       {"mapmatch.route_cache.misses", sel.cache_misses},
       {"mapmatch.route_cache.evictions", sel.cache_evictions},
       {"pipeline.trips_simulated", raw.trips_simulated},
       {"pipeline.segments_selected", sel.filtered_cleaned},
       {"pipeline.transitions_matched", sel.post_filtered},
       {"pipeline.point_speeds", results.total_point_speeds}});
  if (config.faults.Any()) {
    add({{"fault.injected_total", raw.injected.TotalInjected()},
         {"fault.dropped_total", cr.faults.TotalDropped()}});
  }
  if (config.stream_ingestion) {
    const stream::IngestStats& ing = results.ingest_stats;
    add({{"stream.points_ingested", ing.points_released},
         {"stream.points_dropped_late", ing.points_dropped_late},
         {"stream.windows_closed", ing.windows_closed},
         {"stream.windows_opened_implicit", ing.windows_opened_implicit},
         {"stream.slots_declared_lost", ing.slots_declared_lost}});
    // Deterministic too, but a high-water mark is a level, not a flow.
    registry->gauge("stream.peak_buffered_records")
        ->Set(static_cast<double>(ing.peak_buffered_records));
  }

  // Executor load: scheduling-dependent by nature, hence gauges.
  const ExecutorStats ex = executor.stats();
  registry->gauge("executor.batches")->Set(static_cast<double>(ex.batches));
  registry->gauge("executor.serial_items")
      ->Set(static_cast<double>(ex.serial_items));
  registry->gauge("executor.queue_wait_ms")->Set(ex.queue_wait_ms);
  for (size_t w = 0; w < ex.items_per_worker.size(); ++w) {
    const int worker = static_cast<int>(w);
    registry->gauge(StrFormat("executor.worker%02d.items", worker))
        ->Set(static_cast<double>(ex.items_per_worker[w]));
  }
}

}  // namespace core
}  // namespace taxitrace
