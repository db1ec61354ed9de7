// Determinism guard for the online runtime: a ControlRuntime driven by
// clean feeds must reproduce the batch `run_simulation` trajectory
// bit-identically — same cost, same per-step trace, same solver and
// invariant counters — at any acceleration, because event ordering
// depends on event time alone. With fault injection on, the runtime
// must reproduce *itself* across accelerations (the faults are
// stateless counter hashes, not wall-clock effects).
#include "runtime/control_runtime.hpp"

#include <gtest/gtest.h>

#include "core/paper.hpp"
#include "core/simulation.hpp"
#include "engine/sweep.hpp"
#include "market/stochastic_price.hpp"

namespace gridctl::runtime {
namespace {

core::Scenario quick_scenario(double ts_s = 20.0, double duration_s = 200.0) {
  core::Scenario scenario = core::paper::smoothing_scenario(units::Seconds{ts_s});
  scenario.duration_s = units::Seconds{duration_s};
  return scenario;
}

// Demand-responsive market: prices depend on the fleet's own power
// feedback, the hardest case for consume-time payload resolution.
core::Scenario feedback_scenario() {
  core::Scenario scenario = quick_scenario();
  std::vector<market::RegionMarketConfig> regions(3);
  for (std::size_t r = 0; r < 3; ++r) {
    regions[r].stack.capacity_w = 60e6;
    regions[r].base_demand_w = 30e6;
    regions[r].stack.price_floor = 10.0 + 4.0 * static_cast<double>(r);
  }
  scenario.prices = std::make_shared<market::StochasticBidPrice>(regions, 17);
  scenario.start_time_s = units::Seconds{0.0};
  return scenario;
}

// Batteries plus a demand-charge tariff with a charge-aware controller:
// the metering branch (grid draw = IT power minus battery dispatch),
// the SoC columns and the billing meter all run.
core::Scenario storage_scenario() {
  core::Scenario scenario = quick_scenario(20.0, 1600.0);  // 80 steps
  scenario.billing.demand_rate_per_kw = 15.0;
  scenario.billing.cycle_hours = 24.0;
  scenario.controller.demand_charge_aware = true;
  for (auto& idc : scenario.idcs) {
    idc.battery.capacity = units::from_mwh(2.0);
    idc.battery.max_charge_w = units::Watts{1.0e6};
    idc.battery.max_discharge_w = units::Watts{1.5e6};
  }
  return scenario;
}

core::SimulationResult run_batch(const core::Scenario& scenario,
                                 engine::RunTelemetry* telemetry) {
  auto policy = engine::control_policy()(scenario);
  core::SimulationOptions options;
  options.telemetry = telemetry;
  return core::run_simulation(scenario, *policy, options);
}

void expect_traces_identical(const core::SimulationTrace& a,
                             const core::SimulationTrace& b) {
  ASSERT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.power_w, b.power_w);
  EXPECT_EQ(a.servers_on, b.servers_on);
  EXPECT_EQ(a.idc_load_rps, b.idc_load_rps);
  EXPECT_EQ(a.price_per_mwh, b.price_per_mwh);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.backlog_req, b.backlog_req);
  EXPECT_EQ(a.transient_delay_s, b.transient_delay_s);
  EXPECT_EQ(a.portal_rps, b.portal_rps);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.cumulative_cost, b.cumulative_cost);
  EXPECT_EQ(a.grid_power_w, b.grid_power_w);
  EXPECT_EQ(a.battery_soc_j, b.battery_soc_j);
}

void expect_counters_identical(const engine::RunTelemetry& a,
                               const engine::RunTelemetry& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.solver_calls, b.solver_calls);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.status_optimal, b.status_optimal);
  EXPECT_EQ(a.status_max_iterations, b.status_max_iterations);
  EXPECT_EQ(a.status_infeasible, b.status_infeasible);
  EXPECT_EQ(a.warm_start_hits, b.warm_start_hits);
  EXPECT_EQ(a.fallback_backend_retries, b.fallback_backend_retries);
  EXPECT_EQ(a.fallback_holds, b.fallback_holds);
  EXPECT_EQ(a.invariants.checks, b.invariants.checks);
  EXPECT_EQ(a.invariants.by_kind, b.invariants.by_kind);
}

TEST(RuntimeEquivalence, FreeRunMatchesBatchBitIdentically) {
  const core::Scenario scenario = quick_scenario();
  engine::RunTelemetry batch_telemetry;
  const auto batch = run_batch(scenario, &batch_telemetry);

  ControlRuntime runtime(scenario, RuntimeOptions{});
  const RuntimeResult result = runtime.run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.summary.total_cost.value(),
            batch.summary.total_cost.value());
  EXPECT_EQ(units::as_mwh(result.summary.total_energy), units::as_mwh(batch.summary.total_energy));
  EXPECT_EQ(result.summary.overload_time.value(), batch.summary.overload_time.value());
  ASSERT_EQ(result.summary.idcs.size(), batch.summary.idcs.size());
  for (std::size_t j = 0; j < batch.summary.idcs.size(); ++j) {
    EXPECT_EQ(result.summary.idcs[j].peak_power.value(),
              batch.summary.idcs[j].peak_power.value());
    EXPECT_EQ(result.summary.idcs[j].cost.value(),
              batch.summary.idcs[j].cost.value());
  }
  ASSERT_NE(result.trace, nullptr);
  expect_traces_identical(*result.trace, batch.trace);
  expect_counters_identical(result.telemetry, batch_telemetry);

  // Clean feeds: every tick applied, nothing stale, nothing dropped.
  EXPECT_EQ(result.stats.price_ticks, scenario.num_steps());
  EXPECT_EQ(result.stats.workload_ticks, scenario.num_steps());
  EXPECT_EQ(result.stats.dropped_ticks, 0u);
  EXPECT_EQ(result.stats.late_ticks, 0u);
  EXPECT_EQ(result.stats.stale_price_steps, 0u);
  EXPECT_EQ(result.stats.stale_workload_steps, 0u);
  EXPECT_EQ(result.stats.deadline_misses, 0u);
  EXPECT_EQ(result.stats.degraded_steps, 0u);
}

TEST(RuntimeEquivalence, PacedRunMatchesBatch) {
  const core::Scenario scenario = quick_scenario();
  engine::RunTelemetry batch_telemetry;
  const auto batch = run_batch(scenario, &batch_telemetry);

  RuntimeOptions options;
  options.acceleration = 20000.0;  // 200 event-seconds in ~10 ms of wall
  ControlRuntime runtime(scenario, options);
  const RuntimeResult result = runtime.run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.summary.total_cost.value(),
            batch.summary.total_cost.value());
  ASSERT_NE(result.trace, nullptr);
  expect_traces_identical(*result.trace, batch.trace);
  expect_counters_identical(result.telemetry, batch_telemetry);
  // Pacing may or may not miss wall deadlines on a loaded machine, but
  // with degradation off that never changes the control decisions.
}

TEST(RuntimeEquivalence, DemandResponsiveFeedbackMatchesBatch) {
  const core::Scenario scenario = feedback_scenario();
  engine::RunTelemetry batch_telemetry;
  const auto batch = run_batch(scenario, &batch_telemetry);

  ControlRuntime runtime(scenario, RuntimeOptions{});
  const RuntimeResult result = runtime.run();

  EXPECT_EQ(result.summary.total_cost.value(),
            batch.summary.total_cost.value());
  ASSERT_NE(result.trace, nullptr);
  expect_traces_identical(*result.trace, batch.trace);
}

TEST(RuntimeEquivalence, StorageAndDemandChargeMatchBatch) {
  const core::Scenario scenario = storage_scenario();
  engine::RunTelemetry batch_telemetry;
  const auto batch = run_batch(scenario, &batch_telemetry);

  ControlRuntime runtime(scenario, RuntimeOptions{});
  const RuntimeResult result = runtime.run();

  EXPECT_TRUE(result.completed);
  ASSERT_NE(result.trace, nullptr);
  // The storage columns exist and the batteries actually moved.
  ASSERT_EQ(batch.trace.grid_power_w.size(), scenario.num_idcs());
  EXPECT_NE(batch.trace.grid_power_w, batch.trace.power_w);
  EXPECT_NE(batch.trace.battery_soc_j[0].front(),
            batch.trace.battery_soc_j[0].back());
  expect_traces_identical(*result.trace, batch.trace);
  expect_counters_identical(result.telemetry, batch_telemetry);
  EXPECT_EQ(result.summary.total_cost.value(),
            batch.summary.total_cost.value());
  EXPECT_EQ(result.summary.bill.energy.value(),
            batch.summary.bill.energy.value());
  EXPECT_GT(batch.summary.bill.demand.value(), 0.0);
  EXPECT_EQ(result.summary.bill.demand.value(),
            batch.summary.bill.demand.value());
  EXPECT_EQ(result.summary.bill.total().value(),
            batch.summary.bill.total().value());
}

TEST(RuntimeEquivalence, FaultedRunIsAccelerationIndependent) {
  const core::Scenario scenario = quick_scenario();
  RuntimeOptions options;
  options.price_faults.drop_probability = 0.25;
  options.price_faults.late_probability = 0.3;
  options.price_faults.max_lateness_s = 35.0;
  options.price_faults.jitter_s = 2.0;
  options.price_faults.seed = 5;
  options.workload_faults.drop_probability = 0.2;
  options.workload_faults.jitter_s = 1.0;
  options.workload_faults.seed = 6;

  ControlRuntime free_run(scenario, options);
  const RuntimeResult a = free_run.run();

  options.acceleration = 20000.0;
  ControlRuntime paced_run(scenario, options);
  const RuntimeResult b = paced_run.run();

  EXPECT_EQ(a.summary.total_cost.value(), b.summary.total_cost.value());
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  expect_traces_identical(*a.trace, *b.trace);
  expect_counters_identical(a.telemetry, b.telemetry);
  EXPECT_EQ(a.stats.dropped_ticks, b.stats.dropped_ticks);
  EXPECT_EQ(a.stats.late_ticks, b.stats.late_ticks);
  EXPECT_EQ(a.stats.stale_price_steps, b.stats.stale_price_steps);
  EXPECT_EQ(a.stats.stale_workload_steps, b.stats.stale_workload_steps);

  // The faults actually bit: some ticks were dropped, some steps ran on
  // stale values — and the run still completed with zero violations.
  EXPECT_GT(a.stats.dropped_ticks, 0u);
  EXPECT_GT(a.stats.stale_price_steps, 0u);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.telemetry.invariants.total(), 0u);
}

TEST(RuntimeDegradation, DeadlineMissesDegradeTheNextPeriod) {
  const core::Scenario scenario = quick_scenario();
  RuntimeOptions options;
  options.deadline_s = 1e-9;  // every step misses
  options.degrade_on_deadline_miss = true;
  ControlRuntime runtime(scenario, options);
  const RuntimeResult result = runtime.run();

  const std::uint64_t steps = scenario.num_steps();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.deadline_misses, steps);
  // Step 0 runs the full controller; every miss degrades the period
  // after it.
  EXPECT_EQ(result.stats.degraded_steps, steps - 1);
  EXPECT_EQ(result.telemetry.fallback_holds, steps - 1);
  // The hold path still satisfies conservation/caps: zero violations.
  EXPECT_EQ(result.telemetry.invariants.total(), 0u);
  EXPECT_GT(result.summary.total_cost.value(), 0.0);
}

TEST(RuntimeDegradation, MissesAreCountedButHarmlessWhenDisabled) {
  const core::Scenario scenario = quick_scenario();
  engine::RunTelemetry batch_telemetry;
  const auto batch = run_batch(scenario, &batch_telemetry);

  RuntimeOptions options;
  options.deadline_s = 1e-9;  // every step misses, but degrade is off
  ControlRuntime runtime(scenario, options);
  const RuntimeResult result = runtime.run();

  EXPECT_EQ(result.stats.deadline_misses, scenario.num_steps());
  EXPECT_EQ(result.stats.degraded_steps, 0u);
  EXPECT_EQ(result.summary.total_cost.value(),
            batch.summary.total_cost.value());
}

}  // namespace
}  // namespace gridctl::runtime
