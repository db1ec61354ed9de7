// gridbench: the closed-loop benchmark of gridctl.
//
//   gridbench --workload paper_day|fleet_walk|plane_admit --seed N
//             --seconds S --trace 0|1 [--spans-out PATH]
//
// Prints every metric as "name = value unit", then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when a correctness check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gridbench --workload paper_day|fleet_walk|plane_admit "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n");
  return 2;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gridbench::Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  gridbench::Result result;
  try {
    if (options.workload == "paper_day") {
      result = gridbench::run_paper_day(options);
    } else if (options.workload == "fleet_walk") {
      result = gridbench::run_fleet_walk(options);
    } else if (options.workload == "plane_admit") {
      result = gridbench::run_plane_admit(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %s run\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  for (const auto& metric : result.metrics) {
    std::printf("  %-36s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-36s = %.6g ratio\n", "failed_frac",
              result.attempted ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 0.0);
  for (const auto& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : result.metrics) {
    if (!metric.reported) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += first ? "" : ", ";
    json += "\"" + json_escape(metric.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(metric.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
