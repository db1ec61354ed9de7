// Deterministic-counter gate for the condensed QP's convergence: a
// seeded 20-IDC × 50-portal fleet (β1 = 10, β2 = 5) on the condensed
// backend, 30 five-minute periods, with prices from the bid-based
// stochastic market (hourly OU noise and spikes, diurnal regional
// demand and the fleet's own demand feedback, so every period's QP
// differs from the last) and per-minute noisy diurnal workload. The
// gate reads deterministic counters only, never the wall clock.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/paper.hpp"
#include "core/policies.hpp"
#include "core/simulation.hpp"
#include "engine/telemetry.hpp"
#include "market/stochastic_price.hpp"
#include "workload/generators.hpp"

namespace gridctl::core {
namespace {

constexpr std::size_t kIdcs = 20;
constexpr std::size_t kPortals = 50;

Scenario walking_price_fleet() {
  Scenario s;
  static constexpr double kRates[4] = {1.25, 1.5, 1.75, 2.0};
  s.idcs.resize(kIdcs);
  std::vector<market::RegionMarketConfig> regions(kIdcs);
  for (std::size_t j = 0; j < kIdcs; ++j) {
    s.idcs[j].name = "idc" + std::to_string(j);
    s.idcs[j].region = j;
    s.idcs[j].max_servers = 6000 + 1000 * (j % 5);
    s.idcs[j].power.idle_w = units::Watts{paper::kIdleW};
    s.idcs[j].power.peak_w = units::Watts{paper::kPeakW};
    s.idcs[j].power.service_rate = units::Rps{kRates[j % 4]};
    s.idcs[j].latency_bound_s = units::Seconds{paper::kLatencyBound};
    regions[j].stack.capacity_w = 40e6;
    regions[j].stack.price_floor = 15.0 + 2.0 * static_cast<double>(j % 7);
    regions[j].base_demand_w = 20e6;
    regions[j].noise.volatility = 0.3;
    regions[j].spikes.probability_per_hour = 0.2;
    regions[j].peak_hour = 12.0 + static_cast<double>(j % 8);
  }
  s.prices = std::make_shared<market::StochasticBidPrice>(regions, 11);
  std::vector<double> rates(kPortals);
  for (std::size_t i = 0; i < kPortals; ++i) {
    rates[i] = 1500.0 + 150.0 * static_cast<double>(i % 5);
  }
  s.workload = std::make_shared<workload::DiurnalWorkload>(
      std::move(rates), 0.1, 14.0, 0.02, /*seed=*/11);
  s.start_time_s = units::Seconds{10.0 * 3600.0};
  s.ts_s = units::Seconds{300.0};
  s.duration_s = units::Seconds{30 * 300.0};
  s.controller.horizons = {/*prediction=*/10, /*control=*/5};
  s.controller.r_weight = 3.0;
  s.controller.cost_basis = control::CostBasis::kPriceOnly;
  s.controller.solver.backend = solvers::LsqBackend::kCondensed;
  return s;
}

TEST(CondensedConvergence, WalkingPriceFleetConvergesInFewIterations) {
  const Scenario scenario = walking_price_fleet();
  MpcPolicy policy(
      CostController::Config{scenario.idcs, kPortals, {}, scenario.controller});
  engine::RunTelemetry telemetry;
  SimulationOptions options;
  options.telemetry = &telemetry;
  options.record_trace = false;
  run_simulation(scenario, policy, options);

  ASSERT_EQ(telemetry.solver_calls, 30u);
  EXPECT_EQ(telemetry.status_optimal, telemetry.solver_calls);
  EXPECT_EQ(telemetry.fallback_backend_retries, 0u);
  EXPECT_EQ(telemetry.fallback_holds, 0u);
  // Mean QP iterations per solve on this run: 3433.3 with the fixed
  // ρ = 0.1 the condensed solver used before it adapted ρ, 460.2 on the
  // ρ ladder (59 rung switches over the 30 solves). The gate is half the
  // fixed-ρ count.
  constexpr double kFixedRhoMeanIterations = 3433.3;
  EXPECT_LE(telemetry.mean_solver_iterations(), 0.5 * kFixedRhoMeanIterations);
  EXPECT_GT(telemetry.solver_rho_updates, 0u);
}

}  // namespace
}  // namespace gridctl::core
