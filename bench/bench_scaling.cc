// Performance scaling: how the pipeline's cost grows with study size,
// network extent and model size — the systems-side companion to the
// reproduction benches.

#include <chrono>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "taxitrace/mapmatch/gap_filler.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/obs/observability.h"
#include "taxitrace/roadnet/router.h"

namespace taxitrace {
namespace {

double NowMs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1e6;
}

// Routing microbench of record: ShortestPath over sampled OD vertex
// pairs, then the same pairs as edge positions through GapFiller with a
// cold and then a warm route cache, so search cost and cache payoff are
// both visible.
void PrintRoutingBench() {
  synth::CityMapOptions map_options;
  const synth::CityMap map = synth::GenerateCityMap(map_options).value();
  const roadnet::Router router(&map.network);
  const mapmatch::GapFiller filler(&map.network);

  constexpr int kPairs = 256;
  const auto num_vertices =
      static_cast<int64_t>(map.network.num_vertices());
  const auto num_edges = static_cast<int64_t>(map.network.num_edges());
  Rng rng(42);
  std::vector<std::pair<roadnet::VertexId, roadnet::VertexId>> od;
  std::vector<std::pair<roadnet::EdgePosition, roadnet::EdgePosition>> od_pos;
  for (int i = 0; i < kPairs; ++i) {
    od.emplace_back(
        static_cast<roadnet::VertexId>(rng.UniformInt(0, num_vertices - 1)),
        static_cast<roadnet::VertexId>(rng.UniformInt(0, num_vertices - 1)));
    const auto ea =
        static_cast<roadnet::EdgeId>(rng.UniformInt(0, num_edges - 1));
    const auto eb =
        static_cast<roadnet::EdgeId>(rng.UniformInt(0, num_edges - 1));
    od_pos.emplace_back(
        roadnet::EdgePosition{ea, 0.5 * map.network.edge(ea).length_m},
        roadnet::EdgePosition{eb, 0.5 * map.network.edge(eb).length_m});
  }

  int found = 0;
  const double sp_t0 = NowMs();
  for (const auto& [a, b] : od) {
    if (router.ShortestPath(a, b).ok()) ++found;
  }
  const double sp_ms = NowMs() - sp_t0;

  mapmatch::RouteCache cache(kPairs);
  int connected = 0;
  const double cold_t0 = NowMs();
  for (const auto& [a, b] : od_pos) {
    if (filler.Connect(a, b, &cache).ok()) ++connected;
  }
  const double cold_ms = NowMs() - cold_t0;
  const mapmatch::RouteCache::Stats cold_stats = cache.stats();

  const double warm_t0 = NowMs();
  for (const auto& [a, b] : od_pos) {
    (void)filler.Connect(a, b, &cache);
  }
  const double warm_ms = NowMs() - warm_t0;
  const mapmatch::RouteCache::Stats warm_stats = cache.stats();

  const roadnet::RouterStats rt = router.stats();
  std::string json;
  char line[512];
  json += "{\n";
  json += "  \"schema\": \"taxitrace-bench-routing/1\",\n";
  std::snprintf(line, sizeof line,
                "  \"network\": {\"vertices\": %lld, \"edges\": %lld},\n",
                static_cast<long long>(num_vertices),
                static_cast<long long>(num_edges));
  json += line;
  std::snprintf(line, sizeof line, "  \"od_pairs\": %d,\n", kPairs);
  json += line;
  std::snprintf(line, sizeof line,
                "  \"shortest_path\": {\"total_ms\": %.2f, "
                "\"per_query_us\": %.1f, \"found\": %d,\n"
                "    \"heap_pops\": %lld, \"settled_vertices\": %lld, "
                "\"goal_directed_searches\": %lld},\n",
                sp_ms, sp_ms * 1000.0 / kPairs, found,
                static_cast<long long>(rt.heap_pops),
                static_cast<long long>(rt.settled_vertices),
                static_cast<long long>(rt.goal_directed_searches));
  json += line;
  std::snprintf(line, sizeof line,
                "  \"connect_cold_cache\": {\"total_ms\": %.2f, "
                "\"per_query_us\": %.1f, \"connected\": %d, "
                "\"hits\": %lld, \"misses\": %lld},\n",
                cold_ms, cold_ms * 1000.0 / kPairs, connected,
                static_cast<long long>(cold_stats.hits),
                static_cast<long long>(cold_stats.misses));
  json += line;
  std::snprintf(line, sizeof line,
                "  \"connect_warm_cache\": {\"total_ms\": %.2f, "
                "\"per_query_us\": %.1f, "
                "\"hits\": %lld, \"misses\": %lld},\n",
                warm_ms, warm_ms * 1000.0 / kPairs,
                static_cast<long long>(warm_stats.hits - cold_stats.hits),
                static_cast<long long>(warm_stats.misses - cold_stats.misses));
  json += line;
  std::snprintf(line, sizeof line, "  \"warm_speedup\": %.2f\n",
                warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  json += line;
  json += "}\n";
  benchutil::EmitFigureFile("BENCH_routing.json", json);
  std::printf(
      "  routing microbench: %d OD pairs, ShortestPath %.1f us/query, "
      "Connect cold %.1f us / warm %.1f us per query\n\n",
      kPairs, sp_ms * 1000.0 / kPairs, cold_ms * 1000.0 / kPairs,
      warm_ms * 1000.0 / kPairs);
}

// Sink for simulation-only benches: counts what streams past and keeps
// nothing, so the run's resident raw-trip state is exactly the
// simulator's reorder buffer.
struct CountingSink final : public trace::TripSink {
  int64_t trips = 0;
  int64_t points = 0;
  Status Consume(trace::Trip trip) override {
    ++trips;
    points += static_cast<int64_t>(trip.points.size());
    return Status::OK();
  }
};

// Simulation bench of record, two legs emitted to BENCH_simulation.json:
// the paper-scale 7x365 fleet simulated serially, and a 1000-car x 30-day run
// through the streaming TripSink interface, where the only raw-trip
// state alive at any moment is the reorder buffer — its high-water mark
// (`peak_buffered_shards`, ~worker count) is the bounded-memory number,
// against 30 000 shards total. Smoke mode shrinks both legs and tags
// the file so the JSON of record is only rewritten by full runs.
void PrintSimulationBench(bool smoke) {
  synth::CityMapOptions map_options;
  const synth::CityMap map = synth::GenerateCityMap(map_options).value();

  synth::FleetOptions serial_options;  // 7 cars x 365 days
  if (smoke) serial_options.num_days = 30;
  const synth::WeatherModel weather(19121, serial_options.num_days);
  const synth::FleetSimulator fleet(&map, &weather, serial_options);
  CountingSink serial_sink;
  const double serial_t0 = NowMs();
  const auto serial_stats = fleet.Run(nullptr, &serial_sink);
  const double serial_ms = NowMs() - serial_t0;
  if (!serial_stats.ok()) {
    std::fprintf(stderr, "[bench] serial simulation failed: %s\n",
                 serial_stats.status().ToString().c_str());
    std::exit(EXIT_FAILURE);
  }

  synth::FleetOptions big_options;
  big_options.num_cars = smoke ? 50 : 1000;
  big_options.num_days = smoke ? 5 : 30;
  const synth::WeatherModel big_weather(19121, big_options.num_days);
  const synth::FleetSimulator big_fleet(&map, &big_weather, big_options);
  const Executor pool(Executor::ResolveThreadCount(-1));
  CountingSink big_sink;
  const double big_t0 = NowMs();
  const auto big_stats = big_fleet.Run(&pool, &big_sink);
  const double big_ms = NowMs() - big_t0;
  if (!big_stats.ok()) {
    std::fprintf(stderr, "[bench] streaming simulation failed: %s\n",
                 big_stats.status().ToString().c_str());
    std::exit(EXIT_FAILURE);
  }
  const int64_t big_shards =
      static_cast<int64_t>(big_options.num_cars) * big_options.num_days;

  std::string json;
  char line[512];
  json += "{\n";
  json += "  \"schema\": \"taxitrace-bench-simulation/1\",\n";
  std::snprintf(line, sizeof line, "  \"smoke\": %s,\n",
                smoke ? "true" : "false");
  json += line;
  std::snprintf(
      line, sizeof line,
      "  \"serial\": {\"cars\": %d, \"days\": %d, "
      "\"simulation_ms\": %.2f,\n"
      "    \"trips\": %lld, \"points\": %lld, "
      "\"peak_buffered_shards\": %lld},\n",
      serial_options.num_cars, serial_options.num_days, serial_ms,
      static_cast<long long>(serial_sink.trips),
      static_cast<long long>(serial_sink.points),
      static_cast<long long>(serial_stats->peak_buffered_shards));
  json += line;
  std::snprintf(
      line, sizeof line,
      "  \"streaming\": {\"cars\": %d, \"days\": %d, \"workers\": %d,\n"
      "    \"wall_ms\": %.2f, \"trips\": %lld, \"points\": %lld,\n"
      "    \"shards\": %lld, \"peak_buffered_shards\": %lld}\n",
      big_options.num_cars, big_options.num_days, pool.num_threads(),
      big_ms, static_cast<long long>(big_sink.trips),
      static_cast<long long>(big_sink.points),
      static_cast<long long>(big_shards),
      static_cast<long long>(big_stats->peak_buffered_shards));
  json += line;
  json += "}\n";
  benchutil::EmitFigureFile("BENCH_simulation.json", json);
  std::printf(
      "  simulation bench: %dx%d serial %.1f ms (%lld points); "
      "%dx%d streamed %.1f ms, peak %lld/%lld shards buffered\n\n",
      serial_options.num_cars, serial_options.num_days, serial_ms,
      static_cast<long long>(serial_sink.points), big_options.num_cars,
      big_options.num_days, big_ms,
      static_cast<long long>(big_stats->peak_buffered_shards),
      static_cast<long long>(big_shards));
}

// Routing and simulation microbenches of record, plus a metrics
// snapshot of an observability-enabled small study. The full study
// itself is timed by the repository's benchmark of record (perfbench/,
// paper_study workload), with repetitions and a digest gate. CI smoke
// mode shrinks the simulation legs, tags them "smoke", and skips the
// metrics snapshot so the JSON of record is only rewritten by full runs.
void PrintScaling() {
  const char* env = std::getenv("TAXITRACE_BENCH_SMOKE");
  const bool smoke = env != nullptr && env[0] != '\0' && env[0] != '0';
  PrintRoutingBench();
  PrintSimulationBench(smoke);
  if (smoke) return;

  core::StudyConfig metrics_config = core::StudyConfig::SmallStudy();
  metrics_config.observability.enabled = true;
  const core::StudyResults observed =
      benchutil::RunStudyOrExit(metrics_config, "metrics small study");
  benchutil::EmitFigureFile("BENCH_metrics.json",
                            obs::SnapshotJson(observed.observability));
}

void BM_PipelineByThreads(benchmark::State& state) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Pipeline pipeline(config);
    auto results = pipeline.Run();
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_PipelineByThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineByDays(benchmark::State& state) {
  for (auto _ : state) {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.fleet.num_days = static_cast<int>(state.range(0));
    core::Pipeline pipeline(config);
    auto results = pipeline.Run();
    benchmark::DoNotOptimize(results);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PipelineByDays)
    ->Arg(7)
    ->Arg(14)
    ->Arg(28)
    ->Arg(56)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

void BM_DijkstraByNetworkExtent(benchmark::State& state) {
  synth::CityMapOptions options;
  options.extent_m = static_cast<double>(state.range(0));
  options.core_extent_m = options.extent_m * 0.8;
  const synth::CityMap map = synth::GenerateCityMap(options).value();
  const roadnet::Router router(&map.network);
  Rng rng(5);
  for (auto _ : state) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    auto path = router.ShortestPath(a, b);
    benchmark::DoNotOptimize(path);
  }
  state.counters["edges"] =
      static_cast<double>(map.network.num_edges());
}
BENCHMARK(BM_DijkstraByNetworkExtent)
    ->Arg(600)
    ->Arg(1000)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_RemlByObservations(benchmark::State& state) {
  Rng rng(7);
  model::OneWayReml reml;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    reml.Add(static_cast<size_t>(i % 80), rng.Gaussian(20.0, 5.0));
  }
  for (auto _ : state) {
    auto fit = reml.Fit();
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RemlByObservations)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Simulation hot path in isolation: one fleet streamed through a
// counting sink per iteration, scaled by fleet size. This is the bench
// that moves when drive/observe scratch reuse, lazy route noise, or the
// bounded repositioning probe regress.
void BM_FleetSimulator(benchmark::State& state) {
  static const synth::CityMap map =
      synth::GenerateCityMap(synth::CityMapOptions{}).value();
  constexpr int kDays = 7;
  static const synth::WeatherModel weather(19121, kDays);
  synth::FleetOptions options;
  options.num_cars = static_cast<int>(state.range(0));
  options.num_days = kDays;
  const synth::FleetSimulator fleet(&map, &weather, options);
  int64_t points = 0;
  for (auto _ : state) {
    CountingSink sink;
    auto stats = fleet.Run(nullptr, &sink);
    benchmark::DoNotOptimize(stats);
    points = sink.points;
  }
  state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_FleetSimulator)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SpatialIndexBuild(benchmark::State& state) {
  const core::StudyResults& r = benchutil::SmallResults();
  for (auto _ : state) {
    roadnet::SpatialIndex index(&r.map.network,
                                static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_SpatialIndexBuild)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace taxitrace

TAXITRACE_BENCH_MAIN(taxitrace::PrintScaling)
