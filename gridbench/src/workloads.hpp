// The benchmark's three closed-loop workloads. Each runs in free run —
// every control period starts when the previous one returns — through
// the program's public entry points only: runtime::FleetSession
// poll/apply for the single-fleet workloads and
// controlplane::ControlPlane::run for the plane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gridbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // traced run: where the spans are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool reported = true;  // false = printed for the reader, not in the JSON
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // failed correctness checks

  bool correct() const { return failures.empty(); }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void add(std::string name, double value, std::string unit,
           bool reported = true) {
    metrics.push_back({std::move(name), value, std::move(unit), reported});
  }
};

Result run_paper_day(const Options& options);
Result run_fleet_walk(const Options& options);
Result run_plane_admit(const Options& options);

}  // namespace gridbench
