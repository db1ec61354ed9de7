// Per-run telemetry recorded by the closed-loop simulation and
// aggregated by the sweep engine.
//
// A `RunTelemetry` is a passive sink: `core::ClosedLoop` fills it every
// period, for `core::run_simulation` when `SimulationOptions::telemetry`
// points at one and for the online runtime's sessions. Everything here is
// plain counters and wall-clock accumulators — no allocation on the
// recording path beyond the fixed histogram, so instrumentation cost is
// a few `steady_clock::now()` calls per step. The struct is header-only
// so the core simulation can record into it without linking the engine
// library; JSON serialization lives in telemetry.cpp (gridctl_engine).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "check/types.hpp"
#include "solvers/qp.hpp"
#include "util/json.hpp"

namespace gridctl::engine {

// Power-of-two-bucketed histogram of per-step wall times. Bucket i
// counts steps with wall time in [2^i, 2^(i+1)) microseconds (bucket 0
// additionally catches everything below 2 us, the last bucket everything
// at or above 2^(kBuckets-1) us ≈ 32.8 ms). Fixed storage: recording
// never allocates, so the simulation hot loop stays RSS-flat.
struct StepTimingHistogram {
  static constexpr std::size_t kBuckets = 16;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t samples = 0;
  double total_us = 0.0;
  double max_us = 0.0;

  void record(double us) {
    ++samples;
    total_us += us;
    if (us > max_us) max_us = us;
    std::size_t bucket = 0;
    double upper = 2.0;  // exclusive upper edge of bucket 0
    while (bucket + 1 < kBuckets && us >= upper) {
      upper *= 2.0;
      ++bucket;
    }
    ++counts[bucket];
  }

  // Exclusive upper edge of bucket i in microseconds (the last bucket is
  // open-ended and reports infinity).
  static double bucket_upper_us(std::size_t i) {
    if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
    return static_cast<double>(std::uint64_t{2} << i);
  }

  double mean_us() const {
    return samples == 0 ? 0.0 : total_us / static_cast<double>(samples);
  }
};

// Everything one closed-loop run reports about itself: wall-clock per
// phase, the inner QP solver's behavior (threaded up from `MpcResult`
// through `PolicyDecision::solver`), and the step-timing distribution.
struct RunTelemetry {
  // Wall-clock seconds per phase. `policy_s` is time inside
  // `AllocationPolicy::decide` (reference LPs + MPC QP for the control
  // policy); `plant_s` covers fleet/queue advancement; `record_s` the
  // trace bookkeeping; `total_s` the whole run including setup.
  double warm_start_s = 0.0;
  double policy_s = 0.0;
  double plant_s = 0.0;
  double record_s = 0.0;
  double total_s = 0.0;

  std::size_t steps = 0;

  // Inner-solver counters, summed over the run. Zero for policies
  // without an optimizer (e.g. the static baseline).
  std::uint64_t solver_calls = 0;
  std::uint64_t solver_iterations = 0;
  std::uint64_t status_optimal = 0;
  std::uint64_t status_max_iterations = 0;
  std::uint64_t status_infeasible = 0;
  std::uint64_t warm_start_hits = 0;
  // Condensed-solver ρ-ladder switches (deterministic, like the counters
  // above; zero on the dense backends).
  std::uint64_t solver_rho_updates = 0;

  // Degradation-chain counters (gridctl::check): periods rescued by the
  // alternate QP backend (tier 1) and periods that re-applied the last
  // feasible allocation (tier 2).
  std::uint64_t fallback_backend_retries = 0;
  std::uint64_t fallback_holds = 0;

  // Invariant-checking totals over the run (zero `checks` when the
  // policy does not run the checker).
  check::InvariantCounts invariants;

  StepTimingHistogram step_hist;

  // One closed-loop period's wall time, split into the policy decision,
  // the plant advance and the trace record.
  void record_step(double decide_s, double advance_s, double trace_s) {
    policy_s += decide_s;
    plant_s += advance_s;
    record_s += trace_s;
    step_hist.record((decide_s + advance_s + trace_s) * 1e6);
  }

  void record_solver(solvers::QpStatus status, std::size_t iterations,
                     bool warm_started,
                     check::FallbackTier tier = check::FallbackTier::kNone,
                     std::size_t rho_updates = 0) {
    ++solver_calls;
    solver_iterations += iterations;
    solver_rho_updates += rho_updates;
    switch (status) {
      case solvers::QpStatus::kOptimal: ++status_optimal; break;
      case solvers::QpStatus::kMaxIterations: ++status_max_iterations; break;
      case solvers::QpStatus::kInfeasible: ++status_infeasible; break;
    }
    if (warm_started) ++warm_start_hits;
    switch (tier) {
      case check::FallbackTier::kNone: break;
      case check::FallbackTier::kBackendRetry: ++fallback_backend_retries; break;
      case check::FallbackTier::kHoldLastFeasible: ++fallback_holds; break;
    }
  }

  void record_invariants(const check::InvariantCounts& counts) {
    invariants.merge(counts);
  }

  // Fraction of solver calls that reused the previous move solution.
  double warm_start_hit_rate() const {
    return solver_calls == 0
               ? 0.0
               : static_cast<double>(warm_start_hits) /
                     static_cast<double>(solver_calls);
  }

  double mean_solver_iterations() const {
    return solver_calls == 0
               ? 0.0
               : static_cast<double>(solver_iterations) /
                     static_cast<double>(solver_calls);
  }
};

// JSON view of one run's telemetry (the schema is documented in
// docs/ARCHITECTURE.md).
JsonValue telemetry_to_json(const RunTelemetry& telemetry);

}  // namespace gridctl::engine
