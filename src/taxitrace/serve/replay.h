// Synthetic query replay against a Snapshot: the serve layer's load
// generator (the workload behind the benchmark of record's
// `serve_replay`, perfbench/) and proof harness in one.
//
// The workload is a hot-cell Zipf mix over the observed cells (rank by
// point count, weight 1/rank^s) of point, bbox, scenario-slice, and
// deliberate out-of-bounds queries. Query i of shard k derives every
// random choice from MixSeed(seed, k, i) — counter-derived, so the
// query stream, the funnel tallies, and the result digest are
// byte-identical at any worker count, while shards run concurrently
// through common/executor. Latency percentiles and QPS are
// observations of the run (gauges, never inputs to anything
// deterministic).

#ifndef TAXITRACE_SERVE_REPLAY_H_
#define TAXITRACE_SERVE_REPLAY_H_

#include <cstdint>

#include "taxitrace/common/executor.h"
#include "taxitrace/common/result.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/serve/query_engine.h"
#include "taxitrace/serve/snapshot.h"

namespace taxitrace {
namespace serve {

struct WorkloadOptions {
  int64_t num_queries = 1'000'000;
  uint64_t seed = 20121;
  /// Zipf exponent of the hot-cell mix; larger = hotter head.
  double zipf_exponent = 1.1;
  /// Query-type mix; the remainder after the three shares are
  /// deliberate out-of-bounds probes.
  double point_share = 0.55;
  double bbox_share = 0.15;
  double slice_share = 0.20;
  /// Bbox queries span [1, bbox_max_span_cells] cells per axis.
  int32_t bbox_max_span_cells = 6;
  /// Fixed query shards; independent of worker count.
  int num_shards = 64;
};

struct ReplayResult {
  QueryStats stats;            ///< Deterministic funnel tallies.
  uint64_t digest = 0;         ///< Order-sensitive fold of all results.
  int64_t num_queries = 0;
  double wall_ms = 0.0;        ///< Run observation.
  double qps = 0.0;            ///< num_queries / wall.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Replays the workload. When `metrics` is set, publishes the
/// serve.query.* counter family (deterministic) and serve.replay.*
/// gauges (run observations). When `funnel` is set, appends a
/// "serve.queries" stage (in = offered, out = answered, drops =
/// out_of_bounds + empty_cell) and enforces its reconciliation.
Result<ReplayResult> ReplayWorkload(const Snapshot& snapshot,
                                    const WorkloadOptions& options,
                                    const Executor* executor,
                                    obs::MetricsRegistry* metrics = nullptr,
                                    obs::FunnelLedger* funnel = nullptr);

}  // namespace serve
}  // namespace taxitrace

#endif  // TAXITRACE_SERVE_REPLAY_H_
