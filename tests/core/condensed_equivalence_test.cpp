// Closed-loop equivalence of the condensed backend: running the full
// paper scenario with backend "condensed" must reproduce the dense ADMM
// trajectories (the condensed solver runs the same ADMM iteration
// through the problem structure), and the degradation chain under fault
// injection must behave like the dense backends' chain.
#include <gtest/gtest.h>

#include "core/paper.hpp"
#include "core/simulation.hpp"
#include "engine/telemetry.hpp"

namespace gridctl::core {
namespace {

Scenario short_scenario() {
  Scenario scenario = paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.duration_s = units::Seconds{200.0};
  return scenario;
}

TEST(CondensedEquivalence, ClosedLoopTrajectoriesMatchDenseAdmm) {
  Scenario scenario = short_scenario();

  scenario.controller.solver.backend = solvers::LsqBackend::kAdmm;
  MpcPolicy admm(CostController::Config{scenario.idcs, 5, {},
                                        scenario.controller});
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  MpcPolicy condensed(CostController::Config{scenario.idcs, 5, {},
                                             scenario.controller});

  const auto run_admm = run_simulation(scenario, admm);
  const auto run_cnd = run_simulation(scenario, condensed);

  ASSERT_EQ(run_admm.trace.time_s.size(), run_cnd.trace.time_s.size());
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t k = 0; k < run_admm.trace.time_s.size(); ++k) {
      EXPECT_NEAR(run_admm.trace.power_w[j][k], run_cnd.trace.power_w[j][k],
                  2e4)  // 0.02 MW out of multi-MW signals
          << "IDC " << j << " step " << k;
    }
  }
  EXPECT_NEAR(run_admm.summary.total_cost.value(),
              run_cnd.summary.total_cost.value(),
              1e-3 * run_admm.summary.total_cost.value());
}

TEST(CondensedEquivalence, LongerRunMatchesActiveSet) {
  // A longer horizon against the exact active-set solver guards against
  // slow drift that a 10-step window could hide.
  Scenario scenario = short_scenario();
  scenario.duration_s = units::Seconds{600.0};

  scenario.controller.solver.backend = solvers::LsqBackend::kActiveSet;
  MpcPolicy exact(CostController::Config{scenario.idcs, 5, {},
                                         scenario.controller});
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  MpcPolicy condensed(CostController::Config{scenario.idcs, 5, {},
                                             scenario.controller});

  const auto run_exact = run_simulation(scenario, exact);
  const auto run_cnd = run_simulation(scenario, condensed);

  ASSERT_EQ(run_exact.trace.time_s.size(), run_cnd.trace.time_s.size());
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t k = 0; k < run_exact.trace.time_s.size(); ++k) {
      EXPECT_NEAR(run_exact.trace.power_w[j][k], run_cnd.trace.power_w[j][k],
                  2e4)
          << "IDC " << j << " step " << k;
    }
  }
  EXPECT_NEAR(run_exact.summary.total_cost.value(),
              run_cnd.summary.total_cost.value(),
              1e-3 * run_exact.summary.total_cost.value());
}

TEST(CondensedEquivalence, FaultInjectionDegradesLikeDense) {
  // A starvation-level iteration cap forces every condensed solve to
  // fail; with the fallback enabled the run must still complete and
  // land near the healthy trajectory (served by the dense fallbacks),
  // mirroring the PR 3 degradation-chain semantics.
  Scenario scenario = short_scenario();
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  scenario.controller.solver.max_iterations = 2;
  scenario.controller.solver.fallback = true;
  MpcPolicy degraded(CostController::Config{scenario.idcs, 5, {},
                                            scenario.controller});

  Scenario healthy = short_scenario();
  healthy.controller.solver.backend = solvers::LsqBackend::kAdmm;
  MpcPolicy reference(CostController::Config{healthy.idcs, 5, {},
                                             healthy.controller});

  engine::RunTelemetry telemetry;
  SimulationOptions options;
  options.telemetry = &telemetry;
  const auto run_degraded = run_simulation(scenario, degraded, options);
  const auto run_healthy = run_simulation(healthy, reference);

  EXPECT_GT(telemetry.fallback_backend_retries, 0u);
  EXPECT_NEAR(run_healthy.summary.total_cost.value(),
              run_degraded.summary.total_cost.value(),
              1e-2 * run_healthy.summary.total_cost.value());
}

TEST(CondensedEquivalence, FaultInjectionWithoutFallbackHoldsLastFeasible) {
  // With the fallback chain disabled the controller drops to tier 2:
  // hold the last feasible allocation. The run must complete without
  // throwing and report the held steps.
  Scenario scenario = short_scenario();
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  scenario.controller.solver.max_iterations = 2;
  scenario.controller.solver.fallback = false;
  MpcPolicy degraded(CostController::Config{scenario.idcs, 5, {},
                                            scenario.controller});
  engine::RunTelemetry telemetry;
  SimulationOptions options;
  options.telemetry = &telemetry;
  const auto run = run_simulation(scenario, degraded, options);
  EXPECT_GT(telemetry.fallback_holds, 0u);
  EXPECT_GE(run.trace.time_s.size(), 10u);  // the run completed
}

}  // namespace
}  // namespace gridctl::core
