// Shared pieces of the benchmark harness: run options, the report every
// workload fills, and the clock helpers. The harness only measures; the
// metric arithmetic (medians, percentiles, self times) lives in
// perfbench/metrics.py so one implementation serves every workload.

#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "span_recorder.h"

namespace taxitrace {}

namespace perfbench {

namespace tt = ::taxitrace;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one harness run.
struct RunOptions {
  std::string workload;
  /// The benchmark seed; each workload maps it onto its own input seed
  /// (0 selects the program's default inputs, see ProgramSeed).
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// min(4, nproc) pool workers for the parallel passes.
  int workers = 1;
  int nproc = 1;
};

/// The workload's input seed for benchmark seed `seed`: the program's
/// default for seed 0, and a distinct input for every other seed.
inline uint64_t ProgramSeed(uint64_t default_seed, uint64_t seed) {
  return default_seed + seed;
}

/// A correctness check. A failed gate fails the run.
struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What a workload measured. Lists of samples are reduced to metrics
/// by metrics.py.
struct Report {
  uint64_t program_seed = 0;
  /// Set-up time of each set-up repetition.
  std::vector<double> setup_s;
  /// Wall time of each serial / parallel pass of the timed job.
  std::vector<double> serial_s;
  std::vector<double> parallel_s;
  /// Pooled per-operation latencies of the serial passes, or (when the
  /// program reports percentiles itself) one p50 / p99 per pass.
  std::vector<double> latency_ms;
  std::vector<double> latency_p50_ms;
  std::vector<double> latency_p99_ms;
  /// Operation counts from which metrics.accounting derives the
  /// attempted and failed operations.
  std::map<std::string, int64_t> tallies;
  std::vector<Gate> gates;
  /// Digests checked against the committed values on seed 0.
  std::map<std::string, std::string> digests;
  /// Per-layer values measured directly (counts, ratios, timings that
  /// are not span self times).
  std::map<std::string, double> layer;
  /// Traced runs: the spans and the traced composition's wall time.
  SpanRecorder spans;
  double traced_total_s = 0.0;

  void AddGate(std::string name, bool ok, std::string detail = {}) {
    gates.push_back(Gate{std::move(name), ok, std::move(detail)});
  }
};

/// The upper median of a non-empty sample (the middle of an odd count).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Runs `pass` repeatedly until `seconds` have elapsed and at least
/// `min_passes` passes ran. `pass(k)` gets the pass index.
template <typename Fn>
void RunPasses(double seconds, int min_passes, Fn pass) {
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < min_passes || SecondsSince(start) < seconds; ++k) {
    pass(k);
  }
}

void RunStudyWorkload(const RunOptions& options, Report* report);
void RunServeWorkload(const RunOptions& options, Report* report);
void RunMetroWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
