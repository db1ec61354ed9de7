// Report-determinism pin: serializing a plane run must be byte-stable.
// Two identical plane runs — real worker pools, heterogeneous fleets,
// a small fairness quantum forcing requeues and steals — must emit
// byte-identical report JSON once wall-clock telemetry (the only
// legitimately run-dependent content) is scrubbed. This is the
// regression wall for the nondeterminism classes the determinism lint
// (tools/lint_determinism.py) guards against at the source level:
// unordered-container iteration orders, hash-seed-dependent layouts and
// wall-clock reads leaking into serialized results.
#include "controlplane/control_plane.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/paper.hpp"
#include "util/json.hpp"

namespace gridctl::controlplane {
namespace {

// Every key whose value is wall-clock or scheduling telemetry: wall
// timings, lag, the per-step wall-time histogram (`step_timing`), and
// `steals` (which worker stole which fleet depends on thread timing;
// the *results* do not). Everything else — trajectories, costs,
// counters, tick accounting, admission tables — must be byte-identical
// across runs.
const std::set<std::string>& wall_keys() {
  static const std::set<std::string> keys = {
      "wall_s",       "total_s",        "policy_s",
      "plant_s",      "record_s",       "warm_start_s",
      "max_lag_s",    "step_timing",    "steals",
      "total_job_wall_s",
  };
  return keys;
}

JsonValue scrub_wall_telemetry(const JsonValue& value) {
  if (value.is_object()) {
    JsonValue::Object out;
    for (const auto& [key, child] : value.as_object()) {
      if (wall_keys().count(key) != 0) continue;
      out.emplace(key, scrub_wall_telemetry(child));
    }
    return JsonValue(std::move(out));
  }
  if (value.is_array()) {
    JsonValue::Array out;
    out.reserve(value.as_array().size());
    for (const JsonValue& child : value.as_array()) {
      out.push_back(scrub_wall_telemetry(child));
    }
    return JsonValue(std::move(out));
  }
  return value;
}

std::vector<FleetSpec> heterogeneous_specs() {
  const double r_weights[3] = {0.0, 0.8, 2.0};
  std::vector<FleetSpec> specs(6);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    core::Scenario scenario = core::paper::smoothing_scenario(
        units::Seconds{60.0});
    scenario.duration_s = units::Seconds{240.0};
    scenario.controller.r_weight = r_weights[i % 3];
    scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
    specs[i].id = "fleet-" + std::to_string(i);
    specs[i].scenario = std::move(scenario);
  }
  return specs;
}

std::string run_plane_report_json() {
  PlaneOptions options;
  options.workers = 4;
  options.batch_events = 3;  // force many requeues and steals
  ControlPlane plane(heterogeneous_specs(), options);
  const PlaneReport report = plane.run();
  return dump_json(scrub_wall_telemetry(report.to_json()), 2);
}

TEST(ReportDeterminism, PlaneReportJsonIsByteIdenticalAcrossRuns) {
  const std::string first = run_plane_report_json();
  const std::string second = run_plane_report_json();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The scrub itself must not hide real content: a report carries the
// non-wall keys the pin compares (spot-checked here so a future rename
// doesn't silently turn the test into `{} == {}`).
TEST(ReportDeterminism, ScrubKeepsDeterministicContent) {
  const std::string json = run_plane_report_json();
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"plane\""), std::string::npos);
  EXPECT_NE(json.find("\"factor_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"rho_updates\""), std::string::npos);
  EXPECT_NE(json.find("\"total_cost_dollars\""), std::string::npos);
  EXPECT_EQ(json.find("\"wall_s\""), std::string::npos);
  EXPECT_EQ(json.find("\"max_lag_s\""), std::string::npos);
}

}  // namespace
}  // namespace gridctl::controlplane
