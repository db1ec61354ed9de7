// Checkpoint/restore with the condensed MPC backend. The bar is the
// same bit-identity the dense backends are held to: a killed-and-resumed
// runtime must walk the exact trajectory of an uninterrupted one. The
// condensed solver warm-starts from both the stacked move solution and
// its own dual vector, so the checkpoint now carries `mpc_warm_dual` —
// these tests pin that the field round-trips and that a resume replays
// the same QP iterate path double-for-double.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/paper.hpp"
#include "market/stochastic_price.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/control_runtime.hpp"

namespace gridctl::runtime {
namespace {

core::Scenario condensed_scenario() {
  core::Scenario scenario = core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.duration_s = units::Seconds{2400.0};  // 120 control steps
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  scenario.controller.sleep_every_k_steps = 2;
  scenario.controller.predict_workload = true;
  scenario.controller.ar_order = 3;
  return scenario;
}

TEST(CondensedCheckpoint, WarmDualSurvivesJsonRoundTrip) {
  const core::Scenario scenario = condensed_scenario();
  RuntimeOptions partial;
  partial.stop_after_step = 20;
  ControlRuntime runtime(scenario, partial);
  runtime.run();

  const RuntimeCheckpoint original = runtime.checkpoint();
  // After 20 condensed-backend steps the dual cache is live.
  EXPECT_FALSE(original.controller.mpc_warm_start.empty());
  EXPECT_FALSE(original.controller.mpc_warm_dual.empty());

  const RuntimeCheckpoint reloaded =
      RuntimeCheckpoint::from_json(parse_json(dump_json(original.to_json())));
  EXPECT_EQ(original.controller.mpc_warm_start,
            reloaded.controller.mpc_warm_start);
  EXPECT_EQ(original.controller.mpc_warm_dual,
            reloaded.controller.mpc_warm_dual);

  // And the byte pin holds with the new field in the schema.
  const std::string first = dump_json(original.to_json());
  const std::string second = dump_json(reloaded.to_json());
  EXPECT_EQ(first, second);
}

TEST(CondensedCheckpoint, MissingWarmDualRestoresCold) {
  // Checkpoints written before the condensed backend existed have no
  // "mpc_warm_dual" key; they must load with a cold dual, not throw.
  const core::Scenario scenario = condensed_scenario();
  RuntimeOptions partial;
  partial.stop_after_step = 10;
  ControlRuntime runtime(scenario, partial);
  runtime.run();

  JsonValue::Object root = runtime.checkpoint().to_json().as_object();
  JsonValue::Object controller = root.at("controller").as_object();
  controller.erase("mpc_warm_dual");
  root.insert_or_assign("controller", JsonValue(std::move(controller)));
  const RuntimeCheckpoint reloaded = RuntimeCheckpoint::from_json(
      parse_json(dump_json(JsonValue(std::move(root)))));
  EXPECT_TRUE(reloaded.controller.mpc_warm_dual.empty());

  // The resumed run still completes (the first post-restore solve is
  // merely cold on the dual side).
  ControlRuntime resumed(scenario, RuntimeOptions{}, reloaded);
  EXPECT_TRUE(resumed.run().completed);
}

TEST(CondensedCheckpoint, KillAndResumeMatchesUninterruptedExactly) {
  const core::Scenario scenario = condensed_scenario();

  ControlRuntime uninterrupted(scenario, RuntimeOptions{});
  const RuntimeResult reference = uninterrupted.run();
  EXPECT_TRUE(reference.completed);

  // Kill at step 37 (odd: sleep loop mid-phase, warm caches live),
  // persist to disk, restart from the file.
  RuntimeOptions partial;
  partial.stop_after_step = 37;
  ControlRuntime killed(scenario, partial);
  const RuntimeResult head = killed.run();
  EXPECT_FALSE(head.completed);

  const std::string path =
      testing::TempDir() + "/gridctl_condensed_checkpoint.json";
  save_checkpoint(path, killed.checkpoint());
  const RuntimeCheckpoint checkpoint = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_FALSE(checkpoint.controller.mpc_warm_dual.empty());

  ControlRuntime resumed(scenario, RuntimeOptions{}, checkpoint);
  const RuntimeResult tail = resumed.run();
  EXPECT_TRUE(tail.completed);

  EXPECT_EQ(tail.summary.total_cost.value(),
            reference.summary.total_cost.value());
  EXPECT_EQ(units::as_mwh(tail.summary.total_energy),
            units::as_mwh(reference.summary.total_energy));
  EXPECT_EQ(tail.telemetry.steps, reference.telemetry.steps);
  EXPECT_EQ(tail.telemetry.solver_calls, reference.telemetry.solver_calls);
  // The dual warm start shapes the iterate path: identical totals here
  // prove the resume replayed it exactly rather than re-converging.
  EXPECT_EQ(tail.telemetry.solver_iterations,
            reference.telemetry.solver_iterations);
  EXPECT_EQ(tail.telemetry.warm_start_hits,
            reference.telemetry.warm_start_hits);

  ASSERT_NE(tail.trace, nullptr);
  ASSERT_NE(reference.trace, nullptr);
  EXPECT_EQ(tail.trace->time_s, reference.trace->time_s);
  EXPECT_EQ(tail.trace->power_w, reference.trace->power_w);
  EXPECT_EQ(tail.trace->servers_on, reference.trace->servers_on);
  EXPECT_EQ(tail.trace->cumulative_cost, reference.trace->cumulative_cost);
}

TEST(CondensedCheckpoint, KillAndResumeAcrossRhoSwitchesMatchesExactly) {
  // A demand-responsive market moves every period's QP, so solves on
  // both sides of the kill walk the ρ ladder. Each solve starts on the
  // configured ρ, so the resumed run must replay the same rung switches
  // and land on the same trajectory.
  core::Scenario scenario = condensed_scenario();
  std::vector<market::RegionMarketConfig> regions(3);
  for (std::size_t r = 0; r < 3; ++r) {
    regions[r].stack.capacity_w = 60e6;
    regions[r].base_demand_w = 30e6;
    regions[r].stack.price_floor = 10.0 + 4.0 * static_cast<double>(r);
  }
  scenario.prices = std::make_shared<market::StochasticBidPrice>(regions, 17);
  scenario.start_time_s = units::Seconds{0.0};

  ControlRuntime uninterrupted(scenario, RuntimeOptions{});
  const RuntimeResult reference = uninterrupted.run();
  ASSERT_TRUE(reference.completed);

  RuntimeOptions partial;
  partial.stop_after_step = 53;
  ControlRuntime killed(scenario, partial);
  const RuntimeResult head = killed.run();
  ASSERT_FALSE(head.completed);
  const RuntimeCheckpoint checkpoint = RuntimeCheckpoint::from_json(
      parse_json(dump_json(killed.checkpoint().to_json())));

  ControlRuntime resumed(scenario, RuntimeOptions{}, checkpoint);
  const RuntimeResult tail = resumed.run();
  ASSERT_TRUE(tail.completed);

  EXPECT_GT(head.telemetry.solver_rho_updates, 0u);
  EXPECT_GT(reference.telemetry.solver_rho_updates,
            head.telemetry.solver_rho_updates);
  EXPECT_EQ(tail.telemetry.solver_rho_updates,
            reference.telemetry.solver_rho_updates);
  EXPECT_EQ(tail.telemetry.solver_iterations,
            reference.telemetry.solver_iterations);
  EXPECT_EQ(tail.summary.total_cost.value(),
            reference.summary.total_cost.value());
  ASSERT_NE(tail.trace, nullptr);
  ASSERT_NE(reference.trace, nullptr);
  EXPECT_EQ(tail.trace->power_w, reference.trace->power_w);
  EXPECT_EQ(tail.trace->cumulative_cost, reference.trace->cumulative_cost);

  // Checkpoints written before ρ adapted carry no switch counter; they
  // load with it at zero.
  JsonValue::Object root = checkpoint.to_json().as_object();
  JsonValue::Object telemetry = root.at("telemetry").as_object();
  telemetry.erase("solver_rho_updates");
  root.insert_or_assign("telemetry", JsonValue(std::move(telemetry)));
  const RuntimeCheckpoint older =
      RuntimeCheckpoint::from_json(JsonValue(std::move(root)));
  EXPECT_EQ(older.telemetry.solver_rho_updates, 0u);
  EXPECT_EQ(older.telemetry.solver_iterations,
            checkpoint.telemetry.solver_iterations);
}

}  // namespace
}  // namespace gridctl::runtime
