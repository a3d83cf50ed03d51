// The observability ledger of one study run, built from the outputs of
// core::Pipeline's stages: the funnel (one reconciled row per stage,
// every drop named), the deterministic work counters and the
// run-dependent gauges. The funnel and the counters are pure functions
// of the config seeds, byte-identical at any worker count and from
// either source; gauges describe the run itself.

#ifndef TAXITRACE_CORE_STUDY_OBSERVABILITY_H_
#define TAXITRACE_CORE_STUDY_OBSERVABILITY_H_

#include <cstdint>

#include "taxitrace/common/executor.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/fault/fault_report.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/trace/trace_io.h"

namespace taxitrace {
namespace core {

/// Raw-trace volumes and what the fault transform did to them.
struct RawTraceCounts {
  int64_t trips_simulated = 0;
  int64_t points_simulated = 0;
  /// Trips entering the store rebuild (after trip and file faults).
  int64_t trips_before_rebuild = 0;
  /// What the fault transform injected; all zero on a fault-free plan.
  fault::FaultReport injected;
  trace::TraceIoStats io_stats;
};

/// The study funnel. `clean_faults` are the cleaner's own drops, before
/// the injection report is merged into the cleaning report; `selection`
/// sums every segment's SegmentMatchOutput counters.
obs::FunnelLedger BuildStudyFunnel(const StudyConfig& config,
                                   const RawTraceCounts& raw,
                                   const fault::FaultReport& clean_faults,
                                   const SegmentMatchOutput& selection,
                                   const StudyResults& results);

/// Publishes the counters (cleaning report, matching machinery, funnel
/// endpoints) and the gauges (ingest high-water mark, executor load).
void PublishStudyMetrics(const StudyConfig& config, const RawTraceCounts& raw,
                         const SegmentMatchOutput& selection,
                         const MatchMachinery& machinery,
                         const Executor& executor, const StudyResults& results,
                         obs::MetricsRegistry* registry);

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_STUDY_OBSERVABILITY_H_
