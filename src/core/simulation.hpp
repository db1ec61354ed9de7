// Closed-loop simulation: run a Scenario under an AllocationPolicy and
// record everything the paper's figures plot.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "market/billing.hpp"
#include "datacenter/fluid_queue.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

namespace gridctl::engine {
struct RunTelemetry;
}

namespace gridctl::core {

// Per-step recordings. Outer index = IDC (or portal), inner = time step.
// The series are raw bulk buffers (column unit in the name): they feed
// CSV/JSON writers and metric kernels that iterate contiguous doubles.
struct SimulationTrace {
  std::string policy;
  double ts_s = 0.0;
  std::vector<double> time_s;                       // step timestamps
  std::vector<std::vector<double>> power_w;         // [idc][step]
  std::vector<std::vector<double>> servers_on;      // [idc][step]
  std::vector<std::vector<double>> idc_load_rps;    // [idc][step]
  std::vector<std::vector<double>> price_per_mwh;   // [idc][step]
  std::vector<std::vector<double>> latency_s;       // [idc][step]
  // Fluid-queue transient audit: request backlog and FIFO delay
  // estimate per IDC (captures under-provisioning during server ramps
  // that the steady-state latency column cannot see).
  std::vector<std::vector<double>> backlog_req;     // [idc][step]
  std::vector<std::vector<double>> transient_delay_s;  // [idc][step]
  std::vector<std::vector<double>> portal_rps;      // [portal][step]
  std::vector<double> total_power_w;                // [step]
  std::vector<double> cumulative_cost;              // [step], dollars
  // Storage columns, populated only when some IDC has a battery: the
  // metered grid draw (IT power minus battery discharge, clamped at 0)
  // and the end-of-step state of charge. Empty otherwise — grid power
  // then equals power_w and the bill falls back to it.
  std::vector<std::vector<double>> grid_power_w;    // [idc][step]
  std::vector<std::vector<double>> battery_soc_j;   // [idc][step]

  // Flatten to CSV for external plotting.
  CsvTable to_csv() const;
};

struct IdcSummary {
  units::Watts peak_power;
  VolatilityStats volatility;       // of the power series
  BudgetStats budget;               // vs the scenario budget (if any)
  units::Seconds mean_latency;
  units::Joules energy;
  units::Dollars cost;
};

struct SimulationSummary {
  std::string policy;
  // Utility bill under the scenario tariff (market::compute_bill over
  // the metered grid-power series). With no demand-charge tariff the
  // energy component equals total_cost up to float reassociation and
  // the peak components are zero.
  market::BillStatement bill;
  units::Dollars total_cost;
  units::Joules total_energy;
  units::Seconds overload_time;
  // Time during which any IDC's fluid-queue delay estimate exceeded its
  // latency bound (transient SLA damage; 0 when provisioning never lags).
  units::Seconds sla_violation_time;
  units::Requests max_backlog;
  VolatilityStats total_volatility;  // of the fleet-total power series
  std::vector<IdcSummary> idcs;
};

struct SimulationResult {
  SimulationTrace trace;
  SimulationSummary summary;
};

// Dimension-checked totals re-integrated from a recorded trace. Used by
// the CLI `--units-check` self-test: the typed rectangle sums must agree
// with the fleet's own accumulators to within float reassociation.
struct TraceTotals {
  units::Joules energy;
  units::Dollars cost;
  units::Seconds duration;
};

// Rectangle-rule integration of the fleet-total power (and per-IDC
// power × price) over the recorded steps. Row 0 is the warm-start
// operating point and carries no elapsed time, so it is skipped.
TraceTotals integrate_trace(const SimulationTrace& trace);

// The CLIs' `--units-check` self-test: `integrate_trace` must agree with
// the summary's own accumulators to 1e-9 relative. Both sum the same
// per-step terms in different association orders, so agreement is to
// float reassociation, not bit-identity.
struct UnitsCheck {
  bool ok = false;
  std::string verdict;  // "typed re-integration ok|MISMATCH (...)"
  std::string detail;   // on a mismatch: both totals at full precision
};
UnitsCheck check_units(const SimulationTrace& trace,
                       const SimulationSummary& summary);

// Mean power over a window. The argument order is part of the typed
// contract: passing a power where the energy belongs does not compile.
inline units::Watts average_power(units::Joules energy,
                                  units::Seconds elapsed) {
  return energy / elapsed;
}

// Knobs for one closed-loop run. New options extend this struct instead
// of growing the `run_simulation` signature.
struct SimulationOptions {
  // Initialize the fleet and (for MpcPolicy) the controller to the
  // optimal operating point for the hour *before* start_time_s — the
  // experiment then begins from a converged steady state, as the paper's
  // 6:00->7:00 price-step runs do.
  bool warm_start = true;
  // When false the per-step trace is dropped from the returned result
  // (the summary is still computed from it internally) — sweeps holding
  // thousands of job results keep only the aggregates.
  bool record_trace = true;
  // Optional telemetry sink (not owned; may be null). Filled with phase
  // wall-clock, solver counters and the step-timing histogram.
  engine::RunTelemetry* telemetry = nullptr;
};

// Runs `scenario` under `policy`.
SimulationResult run_simulation(const Scenario& scenario,
                                AllocationPolicy& policy,
                                const SimulationOptions& options = {});

// One closed-loop plant, advanced one control period at a time: the
// fleet and its fluid queues, the power fed back to demand-responsive
// prices, the storage state of charge and the recorded trace. Both the
// batch `run_simulation` and the online runtime (runtime::FleetSession)
// drive every period through `step`, so their series agree bit for bit
// by construction. The plant state is public so the runtime checkpoint
// can read and restore it as is.
class ClosedLoop {
 public:
  // `scenario` (validated by the caller) must outlive the loop. The
  // trace carries storage columns only when some IDC has a battery.
  ClosedLoop(const Scenario& scenario, std::string policy);

  // Set the fleet to the converged OptimalPolicy operating point for the
  // hour before the window, computed with the scenario controller's cost
  // basis, and return that decision so the driver can seed its own
  // controller at the same point.
  PolicyDecision warm_start(engine::RunTelemetry* telemetry);

  // The scenario's prices at `t` given the current power feedback, and
  // its portal demands at `t`.
  std::vector<units::PricePerMwh> prices_at(units::Seconds t) const;
  std::vector<units::Rps> demands_at(units::Seconds t) const;

  // Row 0: the operating point before the first period, so policy-induced
  // jumps at the window start are visible in the recorded series (the
  // paper's figures plot the same way).
  void record_start(const std::vector<units::PricePerMwh>& prices,
                    const std::vector<units::Rps>& demands);

  // Period k: `decide()` returns the PolicyDecision; the loop applies it,
  // advances the plant one period at `prices`, meters the grid draw,
  // steps the fluid queues and records the row. Into `telemetry` (may be
  // null) go the decide/plant/record wall time and the decision's solver
  // and invariant counters. Returns the period's wall seconds.
  template <typename Decide>
  double step(std::size_t k, const std::vector<units::PricePerMwh>& prices,
              const std::vector<units::Rps>& demands, Decide&& decide,
              engine::RunTelemetry* telemetry) {
    const Clock::time_point begin = Clock::now();
    return finish_step(k, prices, demands, decide(), begin, telemetry);
  }

  // The run summary from the trace and the fleet's accumulators.
  SimulationSummary summarize() const;

  datacenter::Fleet fleet;
  std::vector<datacenter::FluidQueue> queues;
  // Per-IDC power after the last advance (zero before the first), the
  // feedback demand-responsive prices see. With storage it is the
  // metered grid draw: IT power minus the battery dispatch, clamped at 0.
  std::vector<double> last_power_w;
  // End-of-period state of charge per IDC; empty exactly when no IDC
  // has a battery.
  std::vector<double> soc_j;
  SimulationTrace trace;

 private:
  // Telemetry step timing only; the trajectory never reads it.
  using Clock = std::chrono::steady_clock;  // lint: nondet-ok

  double finish_step(std::size_t k,
                     const std::vector<units::PricePerMwh>& prices,
                     const std::vector<units::Rps>& demands,
                     const PolicyDecision& decision, Clock::time_point begin,
                     engine::RunTelemetry* telemetry);
  // Append one row. `metered`: the storage columns take last_power_w as
  // the grid draw (after a period) rather than the IT power (row 0).
  void record(units::Seconds window_time,
              const std::vector<units::PricePerMwh>& prices,
              const std::vector<units::Rps>& demands, bool metered);

  const Scenario& scenario_;
};

}  // namespace gridctl::core
