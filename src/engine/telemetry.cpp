#include "engine/telemetry.hpp"

#include <cmath>

namespace gridctl::engine {

JsonValue telemetry_to_json(const RunTelemetry& telemetry) {
  JsonValue::Object object;

  JsonValue::Object phases;
  phases["warm_start_s"] = JsonValue(telemetry.warm_start_s);
  phases["policy_s"] = JsonValue(telemetry.policy_s);
  phases["plant_s"] = JsonValue(telemetry.plant_s);
  phases["record_s"] = JsonValue(telemetry.record_s);
  phases["total_s"] = JsonValue(telemetry.total_s);
  object["phases"] = JsonValue(std::move(phases));

  object["steps"] = JsonValue(static_cast<double>(telemetry.steps));

  JsonValue::Object solver;
  solver["calls"] = JsonValue(static_cast<double>(telemetry.solver_calls));
  solver["iterations"] =
      JsonValue(static_cast<double>(telemetry.solver_iterations));
  solver["mean_iterations"] = JsonValue(telemetry.mean_solver_iterations());
  solver["status_optimal"] =
      JsonValue(static_cast<double>(telemetry.status_optimal));
  solver["status_max_iterations"] =
      JsonValue(static_cast<double>(telemetry.status_max_iterations));
  solver["status_infeasible"] =
      JsonValue(static_cast<double>(telemetry.status_infeasible));
  solver["warm_start_hits"] =
      JsonValue(static_cast<double>(telemetry.warm_start_hits));
  solver["warm_start_hit_rate"] = JsonValue(telemetry.warm_start_hit_rate());
  solver["rho_updates"] =
      JsonValue(static_cast<double>(telemetry.solver_rho_updates));
  object["solver"] = JsonValue(std::move(solver));

  JsonValue::Object fallback;
  fallback["backend_retries"] =
      JsonValue(static_cast<double>(telemetry.fallback_backend_retries));
  fallback["holds"] = JsonValue(static_cast<double>(telemetry.fallback_holds));
  object["fallback"] = JsonValue(std::move(fallback));

  JsonValue::Object invariants;
  invariants["checks"] =
      JsonValue(static_cast<double>(telemetry.invariants.checks));
  invariants["violations"] =
      JsonValue(static_cast<double>(telemetry.invariants.total()));
  JsonValue::Object by_kind;
  for (std::size_t i = 0; i < check::kNumInvariants; ++i) {
    by_kind[check::invariant_name(static_cast<check::Invariant>(i))] =
        JsonValue(static_cast<double>(telemetry.invariants.by_kind[i]));
  }
  invariants["by_kind"] = JsonValue(std::move(by_kind));
  object["invariants"] = JsonValue(std::move(invariants));

  JsonValue::Object hist;
  hist["samples"] = JsonValue(static_cast<double>(telemetry.step_hist.samples));
  hist["mean_us"] = JsonValue(telemetry.step_hist.mean_us());
  hist["max_us"] = JsonValue(telemetry.step_hist.max_us);
  JsonValue::Array counts;
  JsonValue::Array edges;
  for (std::size_t i = 0; i < StepTimingHistogram::kBuckets; ++i) {
    counts.push_back(
        JsonValue(static_cast<double>(telemetry.step_hist.counts[i])));
    // The last bucket is open-ended; its edge is omitted (JSON has no
    // infinity), so `bucket_edges_us` has kBuckets - 1 entries.
    if (i + 1 < StepTimingHistogram::kBuckets) {
      edges.push_back(JsonValue(StepTimingHistogram::bucket_upper_us(i)));
    }
  }
  hist["bucket_counts"] = JsonValue(std::move(counts));
  hist["bucket_edges_us"] = JsonValue(std::move(edges));
  object["step_timing"] = JsonValue(std::move(hist));

  return JsonValue(std::move(object));
}

}  // namespace gridctl::engine
