// perfbench_harness: runs one workload of the benchmark of record and
// writes what it measured as JSON. perfbench/run.py builds and invokes
// it, reduces the samples to metrics, and applies the committed-digest
// gates. Usage:
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <report.json> [--spans <file>]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

static_assert(std::endian::native == std::endian::little,
              "span files are written in host byte order");

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

std::string ReportJson(const RunOptions& options, const Report& report,
                       double peak_rss_mb) {
  std::string out = "{\n";
  out += "\"fingerprint\": {\"nproc\": " + std::to_string(options.nproc) +
         ", \"workers\": " + std::to_string(options.workers) +
         ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"program_seed\": " + std::to_string(report.program_seed) + "},\n";
  out += "\"setup_s\": " + Array(report.setup_s) + ",\n";
  out += "\"serial_s\": " + Array(report.serial_s) + ",\n";
  out += "\"parallel_s\": " + Array(report.parallel_s) + ",\n";
  out += "\"latency_ms\": " + Array(report.latency_ms) + ",\n";
  out += "\"latency_p50_ms\": " + Array(report.latency_p50_ms) + ",\n";
  out += "\"latency_p99_ms\": " + Array(report.latency_p99_ms) + ",\n";
  out += "\"peak_rss_mb\": " + Number(peak_rss_mb) + ",\n";
  out += "\"tallies\": {";
  bool first = true;
  for (const auto& [name, count] : report.tallies) {
    out += (first ? "" : ", ") + Quote(name) + ": " + std::to_string(count);
    first = false;
  }
  out += "},\n\"gates\": [";
  for (size_t i = 0; i < report.gates.size(); ++i) {
    const Gate& g = report.gates[i];
    out += (i > 0 ? ",\n  " : "\n  ");
    out += "{\"name\": " + Quote(g.name) +
           ", \"ok\": " + (g.ok ? "true" : "false") +
           ", \"detail\": " + Quote(g.detail) + "}";
  }
  out += "],\n\"digests\": {";
  first = true;
  for (const auto& [name, digest] : report.digests) {
    out += (first ? "" : ", ") + Quote(name) + ": " + Quote(digest);
    first = false;
  }
  out += "},\n\"layer\": {";
  first = true;
  for (const auto& [name, value] : report.layer) {
    out += (first ? "\n  " : ",\n  ") + Quote(name) + ": " + Number(value);
    first = false;
  }
  out += "},\n\"span_names\": [";
  const std::vector<std::string>& names = report.spans.names();
  for (size_t i = 0; i < names.size(); ++i) {
    out += (i > 0 ? ", " : "") + Quote(names[i]);
  }
  out += "],\n\"traced_total_s\": " + Number(report.traced_total_s) + "\n}\n";
  return out;
}

bool ParseArgs(int argc, char** argv, RunOptions* options, std::string* out,
               std::string* spans) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--out") {
      *out = value;
    } else if (key == "--spans") {
      *spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && !out->empty() &&
         options->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string out_path;
  std::string spans_path;
  if (!ParseArgs(argc, argv, &options, &out_path, &spans_path)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <file> [--spans <file>]\n");
    return 2;
  }
  options.nproc = CountCpus();
  options.workers = std::min(4, options.nproc);

  Report report;
  if (options.workload == "paper_study") {
    RunStudyWorkload(options, &report);
  } else if (options.workload == "serve_replay") {
    RunServeWorkload(options, &report);
  } else if (options.workload == "metro_routing") {
    RunMetroWorkload(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (!spans_path.empty() && !report.spans.WriteBinary(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = ReportJson(options, report, peak_rss_mb);
  const bool written = std::fwrite(json.data(), 1, json.size(), file) ==
                       json.size();
  if (std::fclose(file) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
