// serve_replay: the study's grid statistics frozen into a snapshot and
// queried through serve::ReplayWorkload's Zipf mix.

#include <string>
#include <utility>

#include "bench.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/serve/replay.h"
#include "taxitrace/serve/snapshot.h"

namespace perfbench {
namespace {

namespace serve = tt::serve;

/// Queries per replay pass. Part of the committed digest.
constexpr int64_t kQueriesPerPass = 2'000'000;
/// Client streams of the parallel pass.
constexpr int kParallelClients = 16;

// The study at `workers` threads, frozen into snapshot bytes. Appends
// the snapshot build time to `build_s`.
tt::Result<std::string> StudySnapshot(int workers,
                                      std::vector<double>* build_s) {
  tt::core::StudyConfig config = tt::core::StudyConfig::FullStudy();
  config.num_threads = workers;
  TAXITRACE_ASSIGN_OR_RETURN(const tt::core::StudyResults study,
                             tt::core::Pipeline(config).Run());
  const tt::Executor executor(workers);
  const Clock::time_point t0 = Clock::now();
  tt::Result<std::string> bytes =
      serve::SnapshotBuilder().Build(study, &executor);
  build_s->push_back(SecondsSince(t0));
  return bytes;
}

}  // namespace

void RunServeWorkload(const RunOptions& options, Report* report) {
  serve::WorkloadOptions workload;
  workload.num_queries = kQueriesPerPass;
  workload.seed = ProgramSeed(workload.seed, options.seed);
  report->program_seed = workload.seed;

  // Set-up: the study at the pool's worker count, its snapshot, and the
  // snapshot loaded back the way a query service would load it.
  std::vector<double> build_s;
  std::vector<double> load_s;
  tt::Result<serve::Snapshot> snapshot =
      tt::Status::Internal("snapshot not built");
  bool setup_ok = true;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    tt::Result<std::string> bytes = StudySnapshot(options.workers, &build_s);
    if (!bytes.ok()) {
      setup_ok = false;
      break;
    }
    const Clock::time_point l0 = Clock::now();
    snapshot = serve::Snapshot::FromBytes(std::move(*bytes));
    load_s.push_back(SecondsSince(l0));
    report->setup_s.push_back(SecondsSince(t0));
    setup_ok = setup_ok && snapshot.ok();
  }
  report->AddGate("snapshot_ok", setup_ok);
  if (!setup_ok) return;
  report->layer["serve.snapshot_build_s"] = Median(build_s);
  report->layer["serve.snapshot_load_s"] = Median(load_s);
  report->layer["serve.snapshot_bytes"] =
      static_cast<double>(snapshot->bytes().size());
  report->layer["serve.cells"] = static_cast<double>(snapshot->num_cells());

  for (const char* key : {"queries", "answered", "out_of_bounds", "empty_cell"}) {
    report->tallies[key] = 0;
  }
  // The parallel pass replays kParallelClients closed-loop clients over
  // the pool, each client's query stream serially on one worker; together
  // they send as many queries as the serial pass. There are more clients
  // than workers so that a worker on a slow core takes fewer of them and
  // the pass does not wait on one straggler. (Sharding one client's batch
  // over the pool instead gave per-process bimodal times — see README.md.)
  const int clients = kParallelClients;
  std::vector<serve::WorkloadOptions> client_workloads(
      static_cast<size_t>(clients), workload);
  for (int c = 0; c < clients; ++c) {
    serve::WorkloadOptions& w = client_workloads[static_cast<size_t>(c)];
    w.seed = tt::MixSeed(workload.seed, static_cast<uint64_t>(c) + 1, 0);
    w.num_queries = workload.num_queries / clients;
  }
  std::string digest;
  std::vector<std::string> client_digests;
  bool digests_equal = true;
  bool reconciles = true;
  // Folds one replay into the tallies and gates; returns its digest.
  const auto account = [&](const serve::WorkloadOptions& w,
                           const tt::Result<serve::ReplayResult>& run) {
    std::map<std::string, int64_t>& tally = report->tallies;
    tally["queries"] += w.num_queries;
    if (!run.ok()) return std::string("failed");
    const serve::QueryStats& q = run->stats;
    tally["answered"] += q.answered;
    tally["out_of_bounds"] += q.out_of_bounds;
    tally["empty_cell"] += q.empty_cell;
    reconciles = reconciles && q.offered == w.num_queries &&
                 q.offered == q.answered + q.out_of_bounds + q.empty_cell;
    return tt::StrFormat("%016llx",
                         static_cast<unsigned long long>(run->digest));
  };
  const auto serial_pass = [&] {
    const tt::Result<serve::ReplayResult> run =
        serve::ReplayWorkload(*snapshot, workload, nullptr);
    const std::string d = account(workload, run);
    if (digest.empty()) digest = d;
    digests_equal = digests_equal && d == digest;
    if (!run.ok()) return;
    report->serial_s.push_back(run->wall_ms / 1e3);
    report->latency_p50_ms.push_back(run->p50_us / 1e3);
    report->latency_p99_ms.push_back(run->p99_us / 1e3);
    report->layer["serve.answered"] = static_cast<double>(run->stats.answered);
    report->layer["serve.out_of_bounds"] =
        static_cast<double>(run->stats.out_of_bounds);
    report->layer["serve.empty_cell"] =
        static_cast<double>(run->stats.empty_cell);
  };
  const tt::Executor executor(options.workers);
  const auto parallel_pass = [&] {
    std::vector<tt::Result<serve::ReplayResult>> runs(
        static_cast<size_t>(clients), tt::Status::Internal("not run"));
    const Clock::time_point t0 = Clock::now();
    (void)executor.ParallelFor(0, clients, [&](int64_t c) {
      const tt::Executor client(0);
      runs[static_cast<size_t>(c)] = serve::ReplayWorkload(
          *snapshot, client_workloads[static_cast<size_t>(c)], &client);
      return tt::Status::OK();
    });
    report->parallel_s.push_back(SecondsSince(t0));
    std::vector<std::string> ds;
    for (int c = 0; c < clients; ++c) {
      ds.push_back(account(client_workloads[static_cast<size_t>(c)],
                           runs[static_cast<size_t>(c)]));
    }
    if (client_digests.empty()) client_digests = ds;
    digests_equal = digests_equal && ds == client_digests;
  };
  if (!options.trace) {
    RunPasses(options.seconds, 2, [&](int) {
      serial_pass();
      parallel_pass();
    });
  } else {
    serial_pass();
    report->spans.Enable();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&report->spans, "serve.replay");
      serial_pass();
    }
    report->traced_total_s = SecondsSince(t0);
  }
  report->AddGate("funnel_reconciles", reconciles);
  report->AddGate("replay_digests_repeat", digests_equal && !digest.empty());
  report->digests["serve_replay"] = digest;
}

}  // namespace perfbench
