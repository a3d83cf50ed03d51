// Full study runner: the one-command reproduction of the paper. It runs
// the chosen scenario's pipeline once and writes every table and figure
// artefact into an output directory, plus `report.txt` (also printed to
// stdout): each table and figure with its paper-vs-measured checks, the
// in-text aggregates, and the ablations.
//
//   $ ./full_study [output_dir] [scenario] [num_cars] [num_days] [seed]
//
// `scenario` is one of the names in core::ScenarioCatalog() ("paper",
// "small", "winter-storm", "event-weekend", "degraded-sensors",
// "dense-city", "no-river"); default "paper". The counts must be
// positive integers and the seed an unsigned 64-bit integer; a bad value
// or an extra argument prints an `error:` line and exits 2.
//
// Every report section reads the one study run except three ablations
// that need a world of their own: order repair (glitched drives with a
// known device order), matching (drives with a known route) and seed
// stability (five reseeded small studies).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <sys/stat.h>
#include <unordered_map>
#include <vector>

#include "taxitrace/analysis/bootstrap.h"
#include "taxitrace/analysis/cell_stats.h"
#include "taxitrace/analysis/feature_model.h"
#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/analysis/seasons.h"
#include "taxitrace/analysis/summary_stats.h"
#include "taxitrace/clean/order_repair.h"
#include "taxitrace/clean/outlier_filter.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/figures.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/core/scenarios.h"
#include "taxitrace/mapmatch/hmm_matcher.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/match_quality.h"
#include "taxitrace/mapmatch/nearest_edge_matcher.h"
#include "taxitrace/model/mixed_model.h"
#include "taxitrace/model/ols.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/model/qq.h"
#include "taxitrace/odselect/transition_extractor.h"
#include "taxitrace/roadnet/map_io.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/sensor_model.h"

namespace taxitrace {
namespace {

using core::MatchedTransition;
using core::StudyResults;

const char* Verdict(bool holds) { return holds ? "HOLDS" : "VIOLATED"; }

// Appends the first `max_lines` lines of a (possibly large) text block,
// indented, and the total line count when the preview cuts it short.
void AppendPreview(const std::string& text, int max_lines,
                   std::string* out) {
  int lines = 0;
  size_t start = 0;
  while (start < text.size() && lines < max_lines) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    *out += "  " + text.substr(start, end - start) + "\n";
    start = end + 1;
    ++lines;
  }
  const long total =
      static_cast<long>(std::count(text.begin(), text.end(), '\n'));
  if (total > max_lines) *out += StrFormat("  ... (%ld lines total)\n", total);
}

// Mean BLUP of the populated cells whose centre lies within 350 m of the
// origin: the paper's "very centre".
double CentreBlupMean(const StudyResults& r) {
  const analysis::Grid grid(r.grid_cell_m);
  double sum = 0.0;
  int n = 0;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    if (geo::Norm(grid.CellCenter(r.model_cells[g])) < 350.0) {
      sum += r.cell_model.blup[g];
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

// Table 1: junction pairs of the prepared road-network graph (IV-A).
void Table1(const StudyResults& r, std::string* out) {
  *out += core::FormatTable1(r.map.network, 10) + "\n";
  const roadnet::MapPreparationStats& stats = r.map.preparation_stats;
  *out += StrFormat(
      "Map preparation: %d elements -> %d edges (%d merged from multiple "
      "elements), %d junctions, %d terminals, %d intermediate points\n",
      stats.num_elements, stats.num_edges, stats.num_multi_element_edges,
      stats.num_junctions, stats.num_terminals,
      stats.num_intermediate_points);
  *out +=
      "Paper shape: edges list their contributing traffic elements "
      "(e.g. {138854,138855,122734}) between two junction points.\n\n";
}

// Table 2: the segmentation rules applied to the raw traces (IV-C).
void Table2(const StudyResults& r, std::string* out) {
  *out += core::FormatTable2Report(r.cleaning_report) + "\n";
  *out += StrFormat(
      "Paper shape: almost 30000 raw taxi trips are considered (ours: "
      "%lld); day-long engine-on runs split into per-ride segments;\n"
      "segments with <5 points or >30 km are removed.\n\n",
      static_cast<long long>(r.raw_trips));
}

// Table 3: the per-car funnel from segments to transitions (IV-D/E).
void Table3(const StudyResults& r, std::string* out) {
  *out += core::FormatTable3(r.table3) + "\n";
  *out +=
      "Paper totals: 18077 segments -> 5337 filtered -> 770 transitions "
      "-> 674 within centre -> 544 post-filtered.\n"
      "The shape to hold: a steep funnel whose tail (the analysis "
      "population) lands in the hundreds.\n\n";
}

// Table 4: per-direction route statistics (VI-A), with cluster-bootstrap
// intervals for the headline low-speed contrast.
void Table4(const StudyResults& r, std::string* out) {
  const std::vector<analysis::TransitionRecord> records = r.Records();
  const std::vector<analysis::Table4Row> rows =
      analysis::BuildTable4(records);
  *out += core::FormatTable4(rows) + "\n";
  *out +=
      "Paper shape to hold: S-T/T-S routes show a greater proportion of "
      "low speed than T-L/L-T (paper means 38/33 vs 23/24%), the normal-"
      "speed proportion is contrariwise (6/9 vs 15/15%), low speed "
      "correlates with fuel, and the mean count of traffic lights alone "
      "does not explain the difference.\n";
  const auto mean_of = [&](const char* dir, auto field) -> double {
    for (const analysis::Table4Row& row : rows) {
      if (row.direction == dir) return (row.*field).mean;
    }
    return 0.0;
  };
  const double low_ts = mean_of("T-S", &analysis::Table4Row::low_speed_pct);
  const double low_tl = mean_of("T-L", &analysis::Table4Row::low_speed_pct);
  const double norm_ts =
      mean_of("T-S", &analysis::Table4Row::normal_speed_pct);
  const double norm_tl =
      mean_of("T-L", &analysis::Table4Row::normal_speed_pct);
  const double fuel_ts = mean_of("T-S", &analysis::Table4Row::fuel_ml);
  const double fuel_tl = mean_of("T-L", &analysis::Table4Row::fuel_ml);
  *out += StrFormat("Check: low%% T-S > T-L: %.1f > %.1f -> %s\n", low_ts,
                    low_tl, Verdict(low_ts > low_tl));
  *out += StrFormat("Check: normal%% T-L > T-S: %.1f > %.1f -> %s\n",
                    norm_tl, norm_ts, Verdict(norm_tl > norm_ts));
  *out += StrFormat("Check: fuel T-S > T-L: %.0f > %.0f ml -> %s\n",
                    fuel_ts, fuel_tl, Verdict(fuel_ts > fuel_tl));

  // Do the T-S and T-L low-speed means separate beyond resampling noise?
  const auto ci_for = [&records](const char* direction) {
    return analysis::BootstrapTransitions(
        records,
        [direction](const std::vector<analysis::TransitionRecord>& sample) {
          return analysis::MeanLowSpeedPct(sample, direction);
        });
  };
  const analysis::BootstrapInterval ts = ci_for("T-S");
  const analysis::BootstrapInterval tl = ci_for("T-L");
  *out += StrFormat(
      "Bootstrap 95%% CIs (1000 cluster replicates): low%% T-S "
      "[%.1f, %.1f], T-L [%.1f, %.1f]\n",
      ts.lo, ts.hi, tl.lo, tl.hi);
  *out += StrFormat(
      "Check: intervals do not overlap (the contrast is not resampling "
      "noise) -> %s\n\n",
      Verdict(ts.lo > tl.hi));
}

// Table 5: traffic lights and bus stops vs cell average speed (VI-A).
void Table5(const StudyResults& r, std::string* out) {
  const analysis::Table5 table = analysis::BuildTable5(r.cells);
  *out += core::FormatTable5(table) + "\n";
  *out +=
      "Paper values: mean 25.5 (no lights) vs 18.7 km/h (lights), and "
      "the no-light/no-bus cells show much higher variance (303 vs 50).\n";
  *out += StrFormat("Check: lights reduce mean speed: %.1f < %.1f -> %s\n",
                    table.lights.mean, table.no_lights.mean,
                    Verdict(table.lights.mean < table.no_lights.mean));
  *out += StrFormat(
      "Check: variance higher without lights/bus stops: %.0f > %.0f -> "
      "%s\n\n",
      table.no_lights_no_bus.variance, table.lights_and_bus.variance,
      Verdict(table.no_lights_no_bus.variance >
              table.lights_and_bus.variance));
}

// Fig. 3: the cleaned point-speed map for taxi 1.
void Fig3(const StudyResults& r, std::string* out) {
  *out += "FIG 3. Cleaned speed data for taxi 1 (series preview):\n";
  AppendPreview(core::SpeedPointsCsv(r, 1), 8, out);
  int64_t points = 0;
  double mean = 0.0;
  for (const MatchedTransition& mt : r.transitions) {
    if (mt.record.car_id != 1) continue;
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      ++points;
      mean += p.speed_kmh;
    }
  }
  if (points > 0) mean /= static_cast<double>(points);
  *out += StrFormat(
      "Taxi 1 measured speed points: %lld (paper: 4186), mean %.1f "
      "km/h.\nPaper shape: speeds colour the driven corridors between "
      "the T, S, L gates, slowest in the centre.\n\n",
      static_cast<long long>(points), mean);
}

// Fig. 4: taxi 1 point speeds by direction.
void Fig4(const StudyResults& r, std::string* out) {
  *out += "FIG 4. Taxi 1 data categorised by direction:\n";
  *out += "  direction  points   mean km/h  median km/h\n";
  for (const char* dir : {"T-S", "S-T", "T-L", "L-T"}) {
    std::vector<double> speeds;
    for (const MatchedTransition& mt : r.transitions) {
      if (mt.record.car_id != 1 || mt.record.direction != dir) continue;
      for (const trace::RoutePoint& p : mt.transition.segment.points) {
        speeds.push_back(p.speed_kmh);
      }
    }
    const analysis::Summary s = analysis::Summarize(std::move(speeds));
    *out += StrFormat("  %-9s %7lld  %9.1f  %11.1f\n", dir,
                      static_cast<long long>(s.n), s.mean, s.median);
  }
  *out +=
      "Paper shape: the same corridors light up per direction; S<->T "
      "speeds sit below T<->L speeds.\n\n";
}

std::string SeasonLabel(int season) {
  return std::string(
      analysis::SeasonName(static_cast<analysis::Season>(season)));
}

// Fig. 5: taxi 1 point speeds by season, and the fleet-wide seasonal
// mean-speed deltas of Section VI-A.
void Fig5(const StudyResults& r, std::string* out) {
  *out += "FIG 5. Taxi 1 data categorised by season:\n";
  *out += "  season  points   mean km/h\n";
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    std::vector<double> speeds;
    for (const MatchedTransition& mt : r.transitions) {
      if (mt.record.car_id != 1) continue;
      for (const trace::RoutePoint& p : mt.transition.segment.points) {
        if (static_cast<int>(analysis::SeasonOfTimestamp(p.timestamp_s)) ==
            s) {
          speeds.push_back(p.speed_kmh);
        }
      }
    }
    const analysis::Summary summary = analysis::Summarize(std::move(speeds));
    *out += StrFormat("  %-7s %7lld  %9.1f\n", SeasonLabel(s).c_str(),
                      static_cast<long long>(summary.n), summary.mean);
  }
  *out +=
      "\nFleet-wide seasonal deltas vs the all-year mean (paper: winter "
      "-0.07, spring +0.46, summer +0.70, autumn +1.38 km/h):\n";
  const int winter = static_cast<int>(analysis::Season::kWinter);
  const int autumn = static_cast<int>(analysis::Season::kAutumn);
  bool ordering = true;
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    const double delta = r.seasonal[s].delta_kmh;
    *out += StrFormat("  %-7s %+0.2f km/h (n=%lld)\n", SeasonLabel(s).c_str(),
                      delta, static_cast<long long>(r.seasonal[s].n));
    if (s != winter && delta <= r.seasonal[winter].delta_kmh) ordering = false;
    if (s != autumn && delta >= r.seasonal[autumn].delta_kmh) ordering = false;
  }
  *out += StrFormat("Check: autumn fastest, winter slowest ordering -> %s\n\n",
                    Verdict(ordering));
}

double MeanFeaturesPerCell(const std::vector<analysis::CellRecord>& cells) {
  if (cells.empty()) return 0.0;
  double total = 0.0;
  for (const analysis::CellRecord& c : cells) {
    total += c.features.traffic_lights + c.features.bus_stops +
             c.features.pedestrian_crossings + c.features.junctions;
  }
  return total / static_cast<double>(cells.size());
}

// Fig. 6: per-cell speed and map properties for the L-T direction, the
// study-area feature census, and the sparser L-T corridor.
void Fig6(const StudyResults& r, std::string* out) {
  const auto lt = r.cells_by_direction.find("L-T");
  *out += "FIG 6. Average speed and map properties, L-T direction:\n";
  *out += "  cell(x,y)    points  mean km/h  lights  bus  ped  junc\n";
  if (lt != r.cells_by_direction.end()) {
    int shown = 0;
    for (const analysis::CellRecord& c : lt->second) {
      if (shown++ >= 12) break;
      *out += StrFormat("  (%3d,%3d) %9lld  %9.1f  %6d %4d %4d %5d\n",
                        c.cell.cx, c.cell.cy,
                        static_cast<long long>(c.num_points),
                        c.mean_speed_kmh, c.features.traffic_lights,
                        c.features.bus_stops,
                        c.features.pedestrian_crossings,
                        c.features.junctions);
    }
    *out += StrFormat("  ... (%zu L-T cells total)\n", lt->second.size());
  }
  const roadnet::RoadNetwork& net = r.map.network;
  int junctions = 0;
  net.ForEachVertex([&](const roadnet::Vertex& v) {
    if (v.is_junction) ++junctions;
  });
  *out += StrFormat(
      "\nStudy-area census {lights, bus stops, ped. crossings, other "
      "junctions} = {%d,%d,%d,%d}; paper: {67,48,293,271}.\n",
      net.CountFeatures(roadnet::FeatureType::kTrafficLight),
      net.CountFeatures(roadnet::FeatureType::kBusStop),
      net.CountFeatures(roadnet::FeatureType::kPedestrianCrossing),
      junctions);
  const auto st = r.cells_by_direction.find("S-T");
  if (lt != r.cells_by_direction.end() && st != r.cells_by_direction.end()) {
    const double lt_density = MeanFeaturesPerCell(lt->second);
    const double st_density = MeanFeaturesPerCell(st->second);
    *out += StrFormat(
        "Check: L-T cells carry fewer features than S-T cells: %.1f < "
        "%.1f -> %s\n\n",
        lt_density, st_density, Verdict(lt_density < st_density));
  }
}

// Fig. 7: QQ plot of the REML cell intercepts (VI-B).
void Fig7(const StudyResults& r, std::string* out) {
  *out += "FIG 7. Cell intercept regularisation QQ plot (preview):\n";
  AppendPreview(core::QqPlotCsv(r), 8, out);
  std::vector<double> intercepts;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] > 0) {
      intercepts.push_back(r.cell_model.blup[g]);
    }
  }
  const auto series = model::NormalQqSeries(std::move(intercepts));
  const double corr = model::QqCorrelation(series);
  *out += StrFormat(
      "QQ correlation of the %zu cell intercepts: %.4f.\n"
      "Paper shape: the points follow the Gaussian line with the "
      "exception of only the far edges — i.e. near-Gaussian with heavy "
      "tails, so the correlation sits high but below 1.\n"
      "Check: correlation > 0.9 -> %s\n\n",
      series.size(), corr, Verdict(corr > 0.9));
}

// Fig. 8: cell intercepts with 95% confidence limits.
void Fig8(const StudyResults& r, std::string* out) {
  *out += "FIG 8. Cell intercepts with confidence limits (preview):\n";
  AppendPreview(core::InterceptsCsv(r), 10, out);
  int solid = 0, total = 0;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    ++total;
    const double lo = r.cell_model.blup[g] - 1.96 * r.cell_model.blup_se[g];
    const double hi = r.cell_model.blup[g] + 1.96 * r.cell_model.blup_se[g];
    if (lo > 0.0 || hi < 0.0) ++solid;
  }
  *out += StrFormat(
      "Cells with 95%% intervals excluding zero: %d of %d (%.0f%%).\n"
      "Paper shape: while the variation is large for some cells, for "
      "most cells the result is solid.\n"
      "Check: majority solid -> %s\n\n",
      solid, total, 100.0 * solid / std::max(1, total),
      Verdict(solid * 2 > total));
}

// Fig. 9: BLUP cell intercepts on the map — the geography effect.
void Fig9(const StudyResults& r, std::string* out) {
  double min_blup = 1e9, max_blup = -1e9;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    min_blup = std::min(min_blup, r.cell_model.blup[g]);
    max_blup = std::max(max_blup, r.cell_model.blup[g]);
  }
  const double centre_mean = CentreBlupMean(r);
  *out += "FIG 9. Cell intercept predictions on map:\n";
  *out += StrFormat(
      "  BLUP range: [%.1f, %.1f] km/h (paper: ca. -15 to +20 km/h)\n",
      min_blup, max_blup);
  *out += StrFormat(
      "  Mean BLUP in the very centre (<350 m): %.1f km/h (paper: "
      "reductions up to -8 km/h)\n",
      centre_mean);
  *out += StrFormat(
      "  sigma_cell = %.1f km/h, sigma_resid = %.1f km/h (REML), "
      "lambda = %.2f\n",
      std::sqrt(r.cell_model.sigma2_group),
      std::sqrt(r.cell_model.sigma2_residual), r.cell_model.lambda);
  *out += StrFormat("Check: centre is slower than average -> %s\n",
                    Verdict(centre_mean < -1.0));
  *out += StrFormat("Check: spread reaches beyond +/-8 km/h -> %s\n\n",
                    Verdict(min_blup < -8.0 && max_blup > 8.0));
}

// The paper's boundary of 9 lights was experimentally chosen for its
// light-count distribution (route maxima up to 22). The synthetic light
// census yields route counts up to ~10, so the analogous boundary sits
// at 6 — the point where the low-speed share jumps.
constexpr int kLightBoundary = 6;

// Fig. 10: low-speed share per temperature class, split at the light
// boundary — many lights mean more low speed, whatever the weather.
void Fig10(const StudyResults& r, std::string* out) {
  *out += StrFormat(
      "FIG 10. Low speed %% by temperature class, lights <%d (white) vs "
      ">=%d (grey)\n(boundary %d: the experimentally chosen analogue of "
      "the paper's 9 for our light-count range):\n",
      kLightBoundary, kLightBoundary, kLightBoundary);
  AppendPreview(core::WeatherLowSpeedCsv(r, kLightBoundary), 14, out);
  // Count the populated temperature classes where the many-lights group
  // has the larger mean low-speed share.
  double sum[synth::kNumTemperatureClasses][2] = {};
  int64_t n[synth::kNumTemperatureClasses][2] = {};
  for (const MatchedTransition& mt : r.transitions) {
    const int cls = static_cast<int>(r.weather.ClassAt(mt.record.start_time_s));
    const int many =
        mt.record.attributes.traffic_lights >= kLightBoundary ? 1 : 0;
    sum[cls][many] += mt.record.low_speed_share;
    ++n[cls][many];
  }
  int holds = 0, populated = 0;
  for (int c = 0; c < synth::kNumTemperatureClasses; ++c) {
    if (n[c][0] < 3 || n[c][1] < 3) continue;
    ++populated;
    if (sum[c][1] / n[c][1] > sum[c][0] / n[c][0]) ++holds;
  }
  *out += StrFormat(
      "Check: >=%d lights raises low-speed share in %d of %d populated "
      "temperature classes -> %s\n\n",
      kLightBoundary, holds, populated, Verdict(holds * 2 > populated));
}

// Ablation: the length-criterion order repair (IV-B) vs a naive
// timestamp sort, on drives whose fields the transport scrambled.
struct GlitchedTrip {
  std::vector<trace::RoutePoint> observed;  // scrambled fields
  std::vector<trace::RoutePoint> truth;     // device order
};

std::vector<GlitchedTrip> MakeGlitchedTrips(int count) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const synth::WeatherModel weather(3, 30);
  const synth::DriverModel driver(&map, &weather);
  const roadnet::Router router(&map.network);
  synth::SensorOptions clean_options;
  clean_options.timestamp_glitch_prob = 0.0;
  clean_options.id_glitch_prob = 0.0;
  clean_options.drop_prob = 0.0;
  clean_options.dup_prob = 0.0;
  clean_options.outlier_prob = 0.0;
  const synth::SensorModel clean_sensor(clean_options);
  synth::SensorOptions glitch_options = clean_options;
  glitch_options.timestamp_glitch_prob = 0.5;
  glitch_options.id_glitch_prob = 1.0;  // applied if no ts glitch rolled
  const synth::SensorModel glitch_sensor(glitch_options);

  Rng rng(99);
  std::vector<GlitchedTrip> out;
  while (static_cast<int>(out.size()) < count) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto path = router.ShortestPath(a, b);
    if (!path.ok() || path->length_m < 800.0) continue;
    const auto samples = driver.Drive(*path, 3600.0, 1.0, &rng);
    GlitchedTrip trip;
    int64_t id1 = 1, id2 = 1;
    Rng sensor_rng = rng.Fork();
    Rng sensor_rng_copy = sensor_rng;  // identical noise for both
    trip.truth = clean_sensor.Observe(samples, 1, &id1,
                                      map.network.projection(), &sensor_rng);
    trip.observed = clean_sensor.Observe(samples, 1, &id2,
                                         map.network.projection(),
                                         &sensor_rng_copy);
    Rng defect_rng = rng.Fork();
    glitch_sensor.ApplyTransportDefects(&trip.observed, &defect_rng);
    out.push_back(std::move(trip));
  }
  return out;
}

bool SameGeometryOrder(const std::vector<trace::RoutePoint>& a,
                       const std::vector<trace::RoutePoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (geo::HaversineMeters(a[i].position, b[i].position) > 0.5) {
      return false;
    }
  }
  return true;
}

void OrderRepairAblation(std::string* out) {
  const std::vector<GlitchedTrip> trips = MakeGlitchedTrips(300);
  int repair_correct = 0, naive_correct = 0;
  double repair_excess_m = 0.0, naive_excess_m = 0.0;
  for (const GlitchedTrip& trip : trips) {
    const double truth_len = trace::PathLengthMeters(trip.truth);

    std::vector<trace::RoutePoint> repaired = trip.observed;
    clean::RepairPointOrder(&repaired);
    if (SameGeometryOrder(repaired, trip.truth)) ++repair_correct;
    repair_excess_m += trace::PathLengthMeters(repaired) - truth_len;

    std::vector<trace::RoutePoint> naive = trip.observed;
    std::stable_sort(naive.begin(), naive.end(),
                     [](const trace::RoutePoint& x,
                        const trace::RoutePoint& y) {
                       return x.timestamp_s < y.timestamp_s;
                     });
    if (SameGeometryOrder(naive, trip.truth)) ++naive_correct;
    naive_excess_m += trace::PathLengthMeters(naive) - truth_len;
  }
  const double n = static_cast<double>(trips.size());
  *out += StrFormat(
      "ABLATION: order repair (Section IV-B) vs naive timestamp sort, %zu "
      "glitched trips\n",
      trips.size());
  *out += StrFormat(
      "  length-criterion repair: %5.1f%% exact recovery, mean excess "
      "path %.1f m\n",
      100.0 * repair_correct / n, repair_excess_m / n);
  *out += StrFormat(
      "  naive timestamp sort:    %5.1f%% exact recovery, mean excess "
      "path %.1f m\n",
      100.0 * naive_correct / n, naive_excess_m / n);
  *out += StrFormat("Check: repair recovers more trips -> %s\n\n",
                    Verdict(repair_correct > naive_correct));
}

// Ablation: the incremental matcher (IV-E) vs HMM/Viterbi vs the
// nearest-edge baseline, on simulated drives with a known route.
struct MatchCase {
  trace::Trip trip;
  roadnet::Path truth;
};

std::vector<MatchCase> MakeMatchCases(const synth::CityMap& map) {
  const synth::WeatherModel weather(3, 30);
  const synth::DriverModel driver(&map, &weather);
  const roadnet::Router router(&map.network);
  const synth::SensorModel sensor;  // default defects on
  Rng rng(7);
  std::vector<MatchCase> cases;
  while (cases.size() < 60) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    auto path = router.ShortestPath(a, b);
    if (!path.ok() || path->length_m < 1000.0) continue;
    const auto samples = driver.Drive(*path, 7200.0, 1.0, &rng);
    MatchCase c;
    c.truth = std::move(*path);
    int64_t next_id = 1;
    c.trip.points = sensor.Observe(samples, 1, &next_id,
                                   map.network.projection(), &rng);
    // The paper's pipeline repairs ordering and removes obvious errors
    // before matching; do the same here.
    clean::RepairPointOrder(&c.trip.points);
    clean::FilterOutliers(&c.trip.points);
    if (c.trip.points.size() < 5) continue;
    cases.push_back(std::move(c));
  }
  return cases;
}

void MatchingAblation(std::string* out) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const std::vector<MatchCase> cases = MakeMatchCases(map);
  const roadnet::SpatialIndex index(&map.network);
  const mapmatch::IncrementalMatcher incremental(&map.network, &index);
  const mapmatch::HmmMatcher hmm(&map.network, &index);
  const mapmatch::NearestEdgeMatcher baseline(&map.network, &index);

  double jaccard[3] = {}, deviation[3] = {}, len_err[3] = {};
  int n = 0;
  for (const MatchCase& c : cases) {
    const auto inc = incremental.Match(c.trip);
    const auto vit = hmm.Match(c.trip);
    const auto base = baseline.Match(c.trip);
    if (!inc.ok() || !vit.ok() || !base.ok()) continue;
    std::vector<roadnet::EdgeId> truth_edges;
    for (const roadnet::PathStep& s : c.truth.steps) {
      truth_edges.push_back(s.edge);
    }
    const mapmatch::MatchedRoute* routes[3] = {&*inc, &*vit, &*base};
    for (int m = 0; m < 3; ++m) {
      jaccard[m] +=
          mapmatch::EdgeJaccard(routes[m]->DistinctEdges(), truth_edges);
      deviation[m] += mapmatch::MeanGeometryDeviation(routes[m]->geometry,
                                                      c.truth.geometry);
      len_err[m] += mapmatch::RouteLengthError(routes[m]->length_m,
                                               c.truth.length_m);
    }
    ++n;
  }
  *out += StrFormat(
      "ABLATION: incremental matcher (Section IV-E) vs HMM/Viterbi vs "
      "nearest-edge baseline, %d simulated drives\n",
      n);
  *out += "  metric                 incremental       HMM   nearest-edge\n";
  *out += StrFormat("  edge Jaccard              %8.3f  %8.3f      %8.3f\n",
                    jaccard[0] / n, jaccard[1] / n, jaccard[2] / n);
  *out += StrFormat("  mean deviation (m)        %8.1f  %8.1f      %8.1f\n",
                    deviation[0] / n, deviation[1] / n, deviation[2] / n);
  *out += StrFormat("  route length error        %8.3f  %8.3f      %8.3f\n",
                    len_err[0] / n, len_err[1] / n, len_err[2] / n);
  *out += StrFormat(
      "Check: connectivity-aware matchers dominate the baseline on edge "
      "recovery -> %s\n\n",
      Verdict(jaccard[0] > jaccard[2] && jaccard[1] > jaccard[2]));
}

// Transitions found on the study's transition segments by gates of the
// given half-width.
int64_t CountTransitions(const StudyResults& r, double half_width) {
  odselect::OdGateOptions gate_options;
  gate_options.half_width_m = half_width;
  std::vector<odselect::OdGate> gates;
  for (const synth::GateRoad& g : r.map.gates) {
    gates.emplace_back(g.name, g.geometry, gate_options);
  }
  const odselect::TransitionExtractor extractor(gates,
                                                r.map.network.projection());
  int64_t transitions = 0;
  for (const MatchedTransition& mt : r.transitions) {
    transitions += static_cast<int64_t>(
        extractor.Analyze(mt.transition.segment).transitions.size());
  }
  return transitions;
}

// Ablation: thick-geometry OD gates (IV-D) vs thin gates — how many
// genuine transitions a thin gate misses because routes deviate slightly
// from the mapped road.
void ThickGeometryAblation(const StudyResults& r, std::string* out) {
  *out += StrFormat(
      "ABLATION: thick-geometry gate width vs transitions detected on "
      "the %zu known transition segments\n",
      r.transitions.size());
  *out += "  half-width (m)   transitions detected   recall\n";
  const int64_t reference = static_cast<int64_t>(r.transitions.size());
  int64_t thin = 0, thick = 0;  // at 5 m and at the 60 m default
  for (const double width : {5.0, 15.0, 30.0, 60.0, 90.0}) {
    const int64_t found = CountTransitions(r, width);
    if (width == 5.0) thin = found;
    if (width == 60.0) thick = found;
    *out += StrFormat("  %13.0f   %20lld   %5.1f%%\n", width,
                      static_cast<long long>(found),
                      100.0 * static_cast<double>(found) /
                          static_cast<double>(reference));
  }
  *out += StrFormat(
      "Check: thick gates catch more deviating routes than thin gates "
      "(%lld > %lld) -> %s\n\n",
      static_cast<long long>(thick), static_cast<long long>(thin),
      Verdict(thick > thin));
}

// Ablation: the one-way REML specialisation vs the generic Henderson
// mixed-model equations — identical estimates, different cost.
void RemlAblation(const StudyResults& r, std::string* out) {
  model::OneWayReml one_way;
  model::MixedModel mixed(1);
  const geo::LocalProjection& proj = r.map.network.projection();
  const analysis::Grid grid(r.grid_cell_m);
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash> groups;
  for (const MatchedTransition& mt : r.transitions) {
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      const analysis::CellId cell = grid.CellOf(proj.Forward(p.position));
      const auto [it, inserted] = groups.emplace(cell, groups.size());
      one_way.Add(it->second, p.speed_kmh);
      mixed.Add({1.0}, it->second, p.speed_kmh);
    }
  }
  const model::OneWayRemlFit a = one_way.Fit().value();
  const model::MixedModelFit b = mixed.Fit().value();
  *out += StrFormat(
      "ABLATION: one-way REML specialisation vs generic Henderson MME, "
      "%lld point speeds in %zu cells\n",
      static_cast<long long>(a.num_observations), one_way.num_groups());
  *out += "  estimate            one-way      generic\n";
  *out += StrFormat("  intercept (km/h)   %8.3f     %8.3f\n", a.mu,
                    b.fixed_effects[0]);
  *out += StrFormat("  sigma2 residual    %8.2f     %8.2f\n",
                    a.sigma2_residual, b.sigma2_residual);
  *out += StrFormat("  sigma2 cell        %8.2f     %8.2f\n", a.sigma2_group,
                    b.sigma2_group);
  *out += StrFormat("  lambda             %8.4f     %8.4f\n", a.lambda,
                    b.lambda);
  double max_blup_diff = 0.0;
  for (size_t g = 0; g < a.blup.size(); ++g) {
    max_blup_diff = std::max(max_blup_diff, std::abs(a.blup[g] - b.blup[g]));
  }
  *out += StrFormat("  max |BLUP diff|    %8.5f km/h\n", max_blup_diff);
  *out += StrFormat("Check: the two solvers agree -> %s\n\n",
                    Verdict(std::abs(a.lambda - b.lambda) <
                                0.02 * (1 + a.lambda) &&
                            max_blup_diff < 0.05));
}

// Extension: the paper's Eq. (2) with the cell's map-feature counts as
// fixed effects and a random cell intercept, against a plain OLS on the
// same design that ignores the cell clustering.
void FeatureEffectsAblation(const StudyResults& r, std::string* out) {
  const geo::LocalProjection& proj = r.map.network.projection();
  const analysis::Grid grid(r.grid_cell_m);
  std::vector<analysis::SpeedObservation> obs;
  for (const MatchedTransition& mt : r.transitions) {
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      obs.push_back(
          analysis::SpeedObservation{proj.Forward(p.position), p.speed_kmh});
    }
  }
  const Result<analysis::FeatureModelFit> fit =
      analysis::FitFeatureModel(obs, r.cell_features, grid);
  if (!fit.ok()) {
    *out += StrFormat("feature model failed: %s\n",
                      fit.status().ToString().c_str());
    return;
  }
  *out += StrFormat(
      "FEATURE EFFECTS: point speed ~ cell features + (1 | cell), %lld "
      "observations\n",
      static_cast<long long>(fit->fit.num_observations));
  *out += "  term                    estimate      s.e.\n";
  for (size_t i = 0; i < fit->terms.size(); ++i) {
    *out += StrFormat("  %-22s %9.3f %9.3f\n", fit->terms[i].c_str(),
                      fit->fit.fixed_effects[i], fit->fit.fixed_se[i]);
  }
  *out += StrFormat("  residual sd %.2f km/h, leftover cell sd %.2f km/h\n",
                    std::sqrt(fit->fit.sigma2_residual),
                    std::sqrt(fit->fit.sigma2_group));

  model::OlsAccumulator ols(analysis::FeatureModelTerms().size());
  for (const analysis::SpeedObservation& o : obs) {
    const auto it = r.cell_features.find(grid.CellOf(o.position));
    const analysis::CellFeatureCounts c = it == r.cell_features.end()
                                              ? analysis::CellFeatureCounts{}
                                              : it->second;
    ols.Add({1.0, static_cast<double>(c.traffic_lights),
             static_cast<double>(c.bus_stops),
             static_cast<double>(c.pedestrian_crossings),
             static_cast<double>(c.junctions)},
            o.speed_kmh);
  }
  const Result<model::OlsFit> plain = ols.Fit();
  if (plain.ok()) {
    *out += StrFormat(
        "  (plain OLS lights coefficient: %.3f; the mixed model "
        "attributes geography to cells instead of inflating the feature "
        "terms)\n",
        plain->coefficients[1]);
  }
  const double lights = fit->Coefficient("traffic_lights");
  *out += StrFormat(
      "Check: traffic lights reduce speed (negative coefficient %.2f) -> "
      "%s\n",
      lights, Verdict(lights < 0.0));
  *out += StrFormat(
      "Check: residual cell geography remains after the features "
      "(leftover cell sd > 2 km/h) -> %s\n\n",
      Verdict(std::sqrt(fit->fit.sigma2_group) > 2.0));
}

// Seed stability: how much the headline statistics move across
// independently reseeded worlds — the reproduction's error bars. A claim
// that only holds for one seed is not a reproduction.
void SeedStability(std::string* out) {
  *out +=
      "SEED STABILITY: five independent 4-car, 90-day worlds (map, "
      "weather and fleet reseeded)\n";
  *out += "  seed   transitions  low% T-S  low% T-L  cell sd  centre BLUP\n";
  int ordering_holds = 0;
  int centre_slow = 0;
  for (const uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.fleet.num_days = 90;
    config.fleet.num_cars = 4;
    config.fleet.seed = seed;
    config.map.seed = seed + 1;
    config.weather_seed = seed + 2;
    core::Pipeline pipeline(config);
    const Result<StudyResults> run = pipeline.Run();
    int64_t transitions = 0;
    double low_ts = 0.0, low_tl = 0.0, cell_sd = 0.0, centre_blup = 0.0;
    if (run.ok()) {
      const std::vector<analysis::TransitionRecord> records = run->Records();
      transitions = static_cast<int64_t>(run->transitions.size());
      low_ts = analysis::MeanLowSpeedPct(records, "T-S");
      low_tl = analysis::MeanLowSpeedPct(records, "T-L");
      cell_sd = std::sqrt(run->cell_model.sigma2_group);
      centre_blup = CentreBlupMean(*run);
    }
    *out += StrFormat("  %4llu  %11lld  %8.1f  %8.1f  %7.1f  %11.1f\n",
                      static_cast<unsigned long long>(seed),
                      static_cast<long long>(transitions), low_ts, low_tl,
                      cell_sd, centre_blup);
    if (low_ts > low_tl) ++ordering_holds;
    if (centre_blup < -1.0) ++centre_slow;
  }
  *out += StrFormat("Check: low%% T-S > T-L in every world -> %s\n",
                    Verdict(ordering_holds == 5));
  *out += StrFormat("Check: the centre is slow in every world -> %s\n\n",
                    Verdict(centre_slow == 5));
}

// The reproduction report: every table and figure with its checks
// against the paper, the in-text aggregates, then the ablations.
std::string StudyReport(const StudyResults& r) {
  std::string out;
  Table1(r, &out);
  Table2(r, &out);
  Table3(r, &out);
  Table4(r, &out);
  Table5(r, &out);
  Fig3(r, &out);
  Fig4(r, &out);
  Fig5(r, &out);
  Fig6(r, &out);
  Fig7(r, &out);
  Fig8(r, &out);
  Fig9(r, &out);
  Fig10(r, &out);
  out += core::FormatTextAggregates(r) + "\n";
  OrderRepairAblation(&out);
  MatchingAblation(&out);
  ThickGeometryAblation(r, &out);
  RemlAblation(r, &out);
  FeatureEffectsAblation(r, &out);
  SeedStability(&out);
  return out;
}

// Parses a count that must be a positive `int`; on failure prints why
// and returns false (the caller exits 2).
bool ParseCount(const char* name, const char* text, int* value) {
  const Result<int64_t> parsed = ParseInt64(text);
  if (!parsed.ok() || *parsed <= 0 ||
      *parsed > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: %s: must be a positive integer, got %s\n",
                 name, text);
    return false;
  }
  *value = static_cast<int>(*parsed);
  return true;
}

// Parses a whole-string unsigned 64-bit seed; on failure prints why and
// returns false (the caller exits 2).
bool ParseSeed(const char* text, uint64_t* seed) {
  const char* const end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *seed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr,
                 "error: seed: must be an unsigned 64-bit integer, got %s\n",
                 text);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace taxitrace

int main(int argc, char** argv) {
  using namespace taxitrace;

  if (argc > 6) {
    std::fprintf(stderr, "error: unexpected argument %s\n", argv[6]);
    return 2;
  }
  const std::string out_dir = argc > 1 ? argv[1] : "study_output";
  const std::string scenario = argc > 2 ? argv[2] : "paper";
  const Result<core::StudyConfig> scenario_config =
      core::MakeScenario(scenario);
  if (!scenario_config.ok()) {
    std::fprintf(stderr, "%s\navailable scenarios:\n",
                 scenario_config.status().ToString().c_str());
    for (const core::ScenarioInfo& info : core::ScenarioCatalog()) {
      std::fprintf(stderr, "  %-16s %s\n", info.name.c_str(),
                   info.description.c_str());
    }
    return 2;
  }
  core::StudyConfig config = *scenario_config;
  if (argc > 3 && !ParseCount("cars", argv[3], &config.fleet.num_cars)) {
    return 2;
  }
  if (argc > 4 && !ParseCount("days", argv[4], &config.fleet.num_days)) {
    return 2;
  }
  if (argc > 5) {
    if (!ParseSeed(argv[5], &config.fleet.seed)) return 2;
    config.map.seed = config.fleet.seed + 1;
    config.weather_seed = config.fleet.seed + 2;
  }
  ::mkdir(out_dir.c_str(), 0755);

  std::printf(
      "Running the '%s' study: %d cars, %d days, seed %llu...\n",
      scenario.c_str(), config.fleet.num_cars, config.fleet.num_days,
      static_cast<unsigned long long>(config.fleet.seed));
  core::Pipeline pipeline(config);
  const Result<core::StudyResults> run = pipeline.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const core::StudyResults& r = *run;

  // Text report with every table.
  std::string tables;
  tables += core::FormatTable1(r.map.network, 10) + "\n";
  tables += core::FormatTable2Report(r.cleaning_report) + "\n";
  tables += core::FormatTable3(r.table3) + "\n";
  tables += core::FormatTable4(analysis::BuildTable4(r.Records())) + "\n";
  tables += core::FormatTable5(analysis::BuildTable5(r.cells)) + "\n";
  tables += core::FormatTextAggregates(r);

  const std::string report = StudyReport(r);
  std::fputs(report.c_str(), stdout);

  struct Artefact {
    const char* name;
    std::string content;
  };
  const Artefact artefacts[] = {
      {"tables.txt", tables},
      {"report.txt", report},
      {"fig3_speed_map_taxi1.csv", core::SpeedPointsCsv(r, 1)},
      {"fig4_fig5_speed_points_all.csv", core::SpeedPointsCsv(r, 0)},
      {"fig6_cell_map_LT.geojson", core::CellMapGeoJson(r, "L-T")},
      {"fig7_qqplot.csv", core::QqPlotCsv(r)},
      {"fig8_intercepts.csv", core::InterceptsCsv(r)},
      {"fig9_intercept_map.geojson", core::CellMapGeoJson(r)},
      {"fig10_weather_low_speed.csv",
       core::WeatherLowSpeedCsv(r, kLightBoundary)},
      {"hourly_speed.csv", core::HourlySpeedCsv(r)},
      {"fig2_gates.geojson", core::GatesGeoJson(r)},
      {"road_network.geojson",
       roadnet::NetworkToGeoJson(r.map.network)},
      {"traffic_elements.csv",
       roadnet::ElementsToCsv(r.map.source_elements)},
      {"map_features.csv",
       roadnet::FeaturesToCsv(r.map.source_features)},
  };
  for (const Artefact& artefact : artefacts) {
    const std::string path = out_dir + "/" + artefact.name;
    const Status st = core::WriteTextFile(path, artefact.content);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu bytes)\n", path.c_str(),
                artefact.content.size());
  }
  std::printf(
      "\nDone: %zu transitions analysed, %lld point speeds, %zu grid "
      "cells.\n",
      r.transitions.size(),
      static_cast<long long>(r.total_point_speeds), r.cells.size());
  return 0;
}
