// metro_routing: the metro-scale map build, then sequential shortest
// paths over seeded vertex pairs, then nearest-edge probes.

#include <vector>

#include "bench.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/roadnet/connectivity.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/synth/metro_map_generator.h"

namespace perfbench {
namespace {

namespace roadnet = tt::roadnet;

constexpr int kMetroPreset = 3;
constexpr int kRoutesPerPass = 512;
constexpr int kProbesPerPass = 2048;
constexpr double kProbeRadiusM = 400.0;
constexpr uint64_t kDefaultOdSeed = 4242;

struct Inputs {
  std::vector<std::pair<roadnet::VertexId, roadnet::VertexId>> pairs;
  std::vector<tt::geo::EnPoint> probes;
};

// Pass k's OD pairs and probe points, drawn from (seed, k) alone. Pairs
// join vertices of the largest strongly connected component: one-way
// streets leave a few vertices that cannot reach it (or be reached),
// and a route between those does not exist to be found.
Inputs DrawInputs(uint64_t seed, int pass,
                  const std::vector<roadnet::VertexId>& routable,
                  const tt::geo::Bbox& bounds) {
  Inputs in;
  tt::Rng rng(tt::MixSeed(seed, static_cast<uint64_t>(pass), 0));
  const auto n = static_cast<int64_t>(routable.size());
  for (int q = 0; q < kRoutesPerPass; ++q) {
    const auto a = static_cast<size_t>(rng.UniformInt(0, n - 1));
    const auto b = static_cast<size_t>(rng.UniformInt(0, n - 1));
    in.pairs.emplace_back(routable[a], routable[b]);
  }
  for (int q = 0; q < kProbesPerPass; ++q) {
    in.probes.push_back(tt::geo::EnPoint{
        rng.Uniform(bounds.min_x, bounds.max_x),
        rng.Uniform(bounds.min_y, bounds.max_y)});
  }
  return in;
}

struct PassResult {
  double build_s = 0.0;
  double index_build_s = 0.0;
  double probes_s = 0.0;
  double length_sum_m = 0.0;
  int64_t routed = 0;
  int64_t found = 0;
  roadnet::RouterStats router;
  roadnet::SpatialIndexStats index;
  size_t vertices = 0;
  size_t tiles = 0;
  size_t bytes = 0;
};

// One pass: build the map and its query structures, answer pass k's
// routes and probes — serially (recording each route's latency and, when
// traced, a span per call) or fanned over `executor`.
PassResult RunPass(uint64_t seed, int k,
                   const std::vector<roadnet::VertexId>& routable,
                   const tt::Executor* executor, SpanRecorder* spans,
                   std::vector<double>* latency_ms) {
  PassResult r;
  Clock::time_point t0 = Clock::now();
  const int32_t build_span = spans->Begin("roadnet.metro_build");
  const tt::synth::MetroMap map =
      tt::synth::GenerateMetroMap(tt::synth::MetroPreset(kMetroPreset))
          .value();
  spans->End(build_span);
  r.build_s = SecondsSince(t0);
  const roadnet::RoadNetwork& net = map.network;
  r.vertices = net.num_vertices();
  r.tiles = net.num_tiles();
  r.bytes = net.ApproxMemoryBytes();

  t0 = Clock::now();
  const int32_t index_span = spans->Begin("roadnet.index_build");
  const roadnet::Router router(&net);
  const roadnet::SpatialIndex index(&net);
  spans->End(index_span);
  r.index_build_s = SecondsSince(t0);

  const Inputs in = DrawInputs(seed, k, routable, net.Bounds());
  std::vector<double> lengths(in.pairs.size(), -1.0);
  const auto route = [&](size_t q) {
    const tt::Result<roadnet::Path> path =
        router.ShortestPath(in.pairs[q].first, in.pairs[q].second);
    if (path.ok()) lengths[q] = path->length_m;
  };
  std::vector<char> hits(in.probes.size(), 0);
  const auto probe = [&](size_t q) {
    hits[q] = index.Nearest(in.probes[q], kProbeRadiusM).has_value() ? 1 : 0;
  };
  if (executor == nullptr) {
    for (size_t q = 0; q < in.pairs.size(); ++q) {
      const Clock::time_point q0 = Clock::now();
      {
        ScopedSpan span(spans, "roadnet.route", static_cast<int64_t>(q));
        route(q);
      }
      if (latency_ms != nullptr) {
        latency_ms->push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - q0)
                .count());
      }
    }
    t0 = Clock::now();
    {
      ScopedSpan span(spans, "roadnet.nearest");
      for (size_t q = 0; q < in.probes.size(); ++q) probe(q);
    }
    r.probes_s = SecondsSince(t0);
  } else {
    (void)executor->ParallelFor(
        0, static_cast<int64_t>(in.pairs.size()), [&](int64_t q) {
          route(static_cast<size_t>(q));
          return tt::Status::OK();
        });
    t0 = Clock::now();
    (void)executor->ParallelFor(
        0, static_cast<int64_t>(in.probes.size()), [&](int64_t q) {
          probe(static_cast<size_t>(q));
          return tt::Status::OK();
        });
    r.probes_s = SecondsSince(t0);
  }
  for (const double length : lengths) {
    if (length < 0.0) continue;
    ++r.routed;
    r.length_sum_m += length;
  }
  for (const char h : hits) r.found += h;
  r.router = router.stats();
  r.index = index.stats();
  return r;
}

}  // namespace

void RunMetroWorkload(const RunOptions& options, Report* report) {
  const uint64_t seed = ProgramSeed(kDefaultOdSeed, options.seed);
  report->program_seed = seed;
  SpanRecorder untraced;

  // Set-up: a routing service's start — the map, its query structures
  // and the set of vertices routes can join, found before any request
  // is served.
  std::vector<roadnet::VertexId> routable;
  double scc_coverage = 0.0;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const tt::synth::MetroMap map =
        tt::synth::GenerateMetroMap(tt::synth::MetroPreset(kMetroPreset))
            .value();
    const roadnet::Router router(&map.network);
    const roadnet::SpatialIndex index(&map.network);
    routable = roadnet::LargestStronglyConnectedComponent(map.network);
    report->setup_s.push_back(SecondsSince(t0));
    scc_coverage = static_cast<double>(routable.size()) /
                   static_cast<double>(map.network.num_vertices());
  }

  const tt::Executor executor(options.workers);
  std::vector<PassResult> serial;
  bool parallel_equal = true;
  const auto pass = [&](int k, bool with_parallel) {
    Clock::time_point t0 = Clock::now();
    serial.push_back(
        RunPass(seed, k, routable, nullptr, &untraced, &report->latency_ms));
    report->serial_s.push_back(SecondsSince(t0));
    report->tallies["routes"] += kRoutesPerPass;
    report->tallies["routes_unroutable"] += kRoutesPerPass - serial.back().routed;
    if (!with_parallel) return;
    t0 = Clock::now();
    const PassResult p =
        RunPass(seed, k, routable, &executor, &untraced, nullptr);
    report->parallel_s.push_back(SecondsSince(t0));
    report->tallies["routes"] += kRoutesPerPass;
    report->tallies["routes_unroutable"] += kRoutesPerPass - p.routed;
    parallel_equal = parallel_equal && p.routed == serial.back().routed &&
                     p.length_sum_m == serial.back().length_sum_m &&
                     p.found == serial.back().found;
  };
  if (!options.trace) {
    RunPasses(options.seconds, 2, [&](int k) { pass(k, true); });
  } else {
    pass(0, false);
    report->spans.Enable();
    const Clock::time_point t0 = Clock::now();
    const PassResult traced =
        RunPass(seed, 0, routable, nullptr, &report->spans, nullptr);
    report->traced_total_s = SecondsSince(t0);
    report->AddGate("traced_routes_equal_untraced",
                    traced.length_sum_m == serial.front().length_sum_m &&
                        traced.found == serial.front().found);
  }
  report->AddGate("serial_parallel_equal", parallel_equal);
  report->digests["metro_routing"] =
      tt::StrFormat("%.6f", serial.front().length_sum_m);

  std::vector<double> build_s;
  std::vector<double> index_s;
  int64_t searches = 0;
  int64_t settled = 0;
  int64_t tiles_touched = 0;
  int64_t nearest = 0;
  int64_t tiles_probed = 0;
  double probes_s = 0.0;
  for (const PassResult& r : serial) {
    build_s.push_back(r.build_s);
    index_s.push_back(r.index_build_s);
    searches += r.router.searches;
    settled += r.router.settled_vertices;
    tiles_touched += r.router.tiles_touched;
    nearest += kProbesPerPass;
    tiles_probed += r.index.tiles_probed;
    probes_s += r.probes_s;
  }
  const PassResult& first = serial.front();
  std::map<std::string, double>& layer = report->layer;
  layer["roadnet.vertices"] = static_cast<double>(first.vertices);
  layer["roadnet.tiles"] = static_cast<double>(first.tiles);
  layer["roadnet.scc_coverage"] = scc_coverage;
  layer["roadnet.bytes_per_vertex"] =
      static_cast<double>(first.bytes) / static_cast<double>(first.vertices);
  layer["roadnet.metro_build_s"] = Median(build_s);
  layer["roadnet.index_build_s"] = Median(index_s);
  layer["roadnet.settled_per_route"] =
      static_cast<double>(settled) / static_cast<double>(searches);
  layer["roadnet.tiles_touched_per_route"] =
      static_cast<double>(tiles_touched) / static_cast<double>(searches);
  layer["roadnet.nearest_per_s"] = static_cast<double>(nearest) / probes_s;
  layer["roadnet.tiles_probed_per_nearest"] =
      static_cast<double>(tiles_probed) / static_cast<double>(nearest);
}

}  // namespace perfbench
