// The study's per-trip cleaning and per-segment matching, composed from
// the layers' public functions with a span around each call. Each
// function reproduces the program's own unit of work step for step
// (clean::CleanOneTrip, core::MatchSegment), so a traced run yields the
// same counts as an untraced one; the harness checks that it does.

#ifndef PERFBENCH_HARNESS_TRACED_STEPS_H_
#define PERFBENCH_HARNESS_TRACED_STEPS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/core/study_config.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/synth/city_map_generator.h"

namespace perfbench {

/// The shared read-only matching machinery core::Pipeline::Run builds
/// before its matching stage, over one city map.
class MatchMachinery {
 public:
  MatchMachinery(const tt::synth::CityMap* map,
                 const tt::core::StudyConfig& config);
  MatchMachinery(const MatchMachinery&) = delete;
  MatchMachinery& operator=(const MatchMachinery&) = delete;

  [[nodiscard]] const tt::core::SegmentMatchContext& context() const {
    return context_;
  }
  [[nodiscard]] const tt::roadnet::SpatialIndex& index() const {
    return index_;
  }
  [[nodiscard]] const tt::mapmatch::IncrementalMatcher& matcher() const {
    return matcher_;
  }

 private:
  std::vector<tt::odselect::OdGate> gates_;
  std::unordered_map<std::string, const tt::odselect::OdGate*>
      gate_by_name_;
  tt::odselect::TransitionExtractor extractor_;
  tt::roadnet::SpatialIndex index_;
  tt::mapmatch::IncrementalMatcher matcher_;
  tt::mapattr::AttributeFetcher fetcher_;
  tt::core::SegmentMatchContext context_;
};

/// clean::CleanOneTrip with a span around each stage (tag: trip id).
tt::clean::TripCleanOutput TracedCleanTrip(
    tt::trace::Trip trip, const tt::clean::CleaningOptions& options,
    SpanRecorder* spans);

/// core::MatchSegment with spans around the extractor, each match, each
/// attribute fetch and each transition record (tag: segment trip id).
tt::core::SegmentMatchOutput TracedMatchSegment(
    const tt::trace::Trip& segment,
    const tt::core::SegmentMatchContext& context, SpanRecorder* spans);

/// The counts the traced and untraced runs must agree on.
struct StudyCounts {
  int64_t segments = 0;     ///< Cleaned segments.
  int64_t transitions = 0;  ///< Post-filtered matched transitions.
  int64_t point_speeds = 0;

  friend bool operator==(const StudyCounts&, const StudyCounts&) = default;
};

std::string ToString(const StudyCounts& counts);

/// Selection and matching tallies folded over segments.
struct MatchTally {
  int64_t segments_analyzed = 0;
  int64_t segments_selected = 0;
  int64_t transitions_examined = 0;
  int64_t transitions_kept = 0;
  int64_t matches = 0;
  int64_t match_failed = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t point_speeds = 0;

  void Add(const tt::core::SegmentMatchOutput& out);
  void Add(const MatchTally& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACED_STEPS_H_
