// Checkpoint/restore: JSON round-trip exactness and kill-and-resume
// equivalence. The bar is bit-identity, not tolerance: a restored
// runtime must walk the same trajectory double-for-double as the
// uninterrupted one, including the MPC warm-start cache and the RLS
// predictor state that shape the QP iterate path.
#include "runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/paper.hpp"
#include "core/simulation.hpp"
#include "engine/sweep.hpp"
#include "runtime/control_runtime.hpp"
#include "util/error.hpp"

namespace gridctl::runtime {
namespace {

// Slow sleep loop + RLS workload prediction: the scenario variant with
// the most hidden controller state (step-count phase, predictor theta/
// covariance/history) — exactly what a sloppy checkpoint would lose.
core::Scenario stateful_scenario() {
  core::Scenario scenario = core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.duration_s = units::Seconds{2400.0};  // 120 control steps
  scenario.controller.sleep_every_k_steps = 2;
  scenario.controller.predict_workload = true;
  scenario.controller.ar_order = 3;
  return scenario;
}

void expect_checkpoints_identical(const RuntimeCheckpoint& a,
                                  const RuntimeCheckpoint& b) {
  EXPECT_EQ(a.next_step, b.next_step);
  EXPECT_EQ(a.price_ticks_consumed, b.price_ticks_consumed);
  EXPECT_EQ(a.workload_ticks_consumed, b.workload_ticks_consumed);
  EXPECT_EQ(a.held_prices, b.held_prices);
  EXPECT_EQ(a.held_price_time_s, b.held_price_time_s);
  EXPECT_EQ(a.held_demands, b.held_demands);
  EXPECT_EQ(a.held_demand_time_s, b.held_demand_time_s);
  EXPECT_EQ(a.last_power_w, b.last_power_w);
  EXPECT_EQ(a.degrade_pending, b.degrade_pending);

  EXPECT_EQ(a.controller.allocation, b.controller.allocation);
  EXPECT_EQ(a.controller.servers, b.controller.servers);
  EXPECT_EQ(a.controller.step_count, b.controller.step_count);
  EXPECT_EQ(a.controller.mpc_warm_start, b.controller.mpc_warm_start);
  ASSERT_EQ(a.controller.predictors.size(), b.controller.predictors.size());
  for (std::size_t i = 0; i < a.controller.predictors.size(); ++i) {
    const auto& pa = a.controller.predictors[i];
    const auto& pb = b.controller.predictors[i];
    EXPECT_EQ(pa.theta, pb.theta);
    EXPECT_EQ(pa.updates, pb.updates);
    EXPECT_EQ(pa.history, pb.history);
    ASSERT_EQ(pa.covariance.rows(), pb.covariance.rows());
    ASSERT_EQ(pa.covariance.cols(), pb.covariance.cols());
    for (std::size_t r = 0; r < pa.covariance.rows(); ++r) {
      for (std::size_t c = 0; c < pa.covariance.cols(); ++c) {
        EXPECT_EQ(pa.covariance(r, c), pb.covariance(r, c));
      }
    }
  }

  ASSERT_EQ(a.fleet.size(), b.fleet.size());
  for (std::size_t j = 0; j < a.fleet.size(); ++j) {
    EXPECT_EQ(a.fleet[j].servers_on, b.fleet[j].servers_on);
    EXPECT_EQ(a.fleet[j].load_rps, b.fleet[j].load_rps);
    EXPECT_EQ(a.fleet[j].energy_joules, b.fleet[j].energy_joules);
    EXPECT_EQ(a.fleet[j].cost_dollars, b.fleet[j].cost_dollars);
    EXPECT_EQ(a.fleet[j].overload_seconds, b.fleet[j].overload_seconds);
  }
  EXPECT_EQ(a.queue_backlogs_req, b.queue_backlogs_req);

  EXPECT_EQ(a.trace.time_s, b.trace.time_s);
  EXPECT_EQ(a.trace.power_w, b.trace.power_w);
  EXPECT_EQ(a.trace.servers_on, b.trace.servers_on);
  EXPECT_EQ(a.trace.cumulative_cost, b.trace.cumulative_cost);

  EXPECT_EQ(a.telemetry.solver_calls, b.telemetry.solver_calls);
  EXPECT_EQ(a.telemetry.solver_iterations, b.telemetry.solver_iterations);
  EXPECT_EQ(a.telemetry.warm_start_hits, b.telemetry.warm_start_hits);
  EXPECT_EQ(a.telemetry.fallback_holds, b.telemetry.fallback_holds);
  EXPECT_EQ(a.telemetry.invariants.checks, b.telemetry.invariants.checks);
  EXPECT_EQ(a.stats.price_ticks, b.stats.price_ticks);
  EXPECT_EQ(a.stats.workload_ticks, b.stats.workload_ticks);
  EXPECT_EQ(a.stats.dropped_ticks, b.stats.dropped_ticks);
}

TEST(Checkpoint, JsonBytesArePinnedAcrossRoundTrips) {
  // The checkpoint wire format is a raw-double JSON schema; the strong
  // unit types stop at the serialization boundary. Pin that: the schema
  // id is unchanged, the top-level key set is exactly the historical
  // one, and serialize -> parse -> serialize reproduces the same bytes
  // (shortest-repr double printing is deterministic, so any typed value
  // leaking a conversion into the writer shows up as a byte diff).
  const core::Scenario scenario = stateful_scenario();
  RuntimeOptions partial;
  partial.stop_after_step = 20;
  ControlRuntime runtime(scenario, partial);
  runtime.run();

  const JsonValue json = runtime.checkpoint().to_json();
  EXPECT_EQ(json.at("schema").as_string(), "gridctl.runtime.checkpoint/3");
  for (const char* key :
       {"schema", "progress", "held", "fleet", "queue_backlogs_req",
        "controller", "trace", "telemetry", "stats"}) {
    EXPECT_TRUE(json.as_object().count(key)) << "missing key " << key;
  }

  const std::string first = dump_json(json);
  const std::string second =
      dump_json(RuntimeCheckpoint::from_json(parse_json(first)).to_json());
  EXPECT_EQ(first, second);
}

TEST(Checkpoint, JsonRoundTripThenHundredSteps) {
  const core::Scenario scenario = stateful_scenario();

  RuntimeOptions partial;
  partial.stop_after_step = 20;
  ControlRuntime first(scenario, partial);
  const RuntimeResult head = first.run();
  EXPECT_FALSE(head.completed);

  const RuntimeCheckpoint original = first.checkpoint();
  // Serialize -> parse: every state vector must survive exactly
  // (dump_json round-trips doubles via shortest-repr printing).
  const RuntimeCheckpoint reloaded =
      RuntimeCheckpoint::from_json(parse_json(dump_json(original.to_json())));
  expect_checkpoints_identical(original, reloaded);

  // Step both restored runtimes 100 more ticks and compare the full
  // state again — a lossy codec would diverge within a step or two.
  RuntimeOptions more;
  more.stop_after_step = 120;
  ControlRuntime from_original(scenario, more, original);
  ControlRuntime from_reloaded(scenario, more, reloaded);
  from_original.run();
  from_reloaded.run();
  expect_checkpoints_identical(from_original.checkpoint(),
                               from_reloaded.checkpoint());
}

TEST(Checkpoint, KillAndResumeMatchesUninterruptedExactly) {
  const core::Scenario scenario = stateful_scenario();

  // Uninterrupted reference run (also the batch simulation, which the
  // runtime must match in the first place).
  ControlRuntime uninterrupted(scenario, RuntimeOptions{});
  const RuntimeResult reference = uninterrupted.run();
  EXPECT_TRUE(reference.completed);

  auto batch_policy = engine::control_policy()(scenario);
  const auto batch = core::run_simulation(scenario, *batch_policy);
  EXPECT_EQ(reference.summary.total_cost.value(),
            batch.summary.total_cost.value());

  // Kill at step 37 (odd, so the slow sleep loop is mid-phase), persist
  // the checkpoint to disk, restart from the file.
  RuntimeOptions partial;
  partial.stop_after_step = 37;
  ControlRuntime killed(scenario, partial);
  const RuntimeResult head = killed.run();
  EXPECT_FALSE(head.completed);
  EXPECT_EQ(head.telemetry.steps, 37u);

  const std::string path =
      testing::TempDir() + "/gridctl_runtime_checkpoint.json";
  save_checkpoint(path, killed.checkpoint());
  const RuntimeCheckpoint checkpoint = load_checkpoint(path);
  std::remove(path.c_str());

  ControlRuntime resumed(scenario, RuntimeOptions{}, checkpoint);
  const RuntimeResult tail = resumed.run();
  EXPECT_TRUE(tail.completed);

  // Final report identical to the uninterrupted run: cost, peaks,
  // solver/invariant counters, and the whole per-step trace.
  EXPECT_EQ(tail.summary.total_cost.value(),
            reference.summary.total_cost.value());
  EXPECT_EQ(units::as_mwh(tail.summary.total_energy), units::as_mwh(reference.summary.total_energy));
  EXPECT_EQ(tail.summary.overload_time.value(), reference.summary.overload_time.value());
  EXPECT_EQ(tail.summary.sla_violation_time.value(),
            reference.summary.sla_violation_time.value());
  ASSERT_EQ(tail.summary.idcs.size(), reference.summary.idcs.size());
  for (std::size_t j = 0; j < reference.summary.idcs.size(); ++j) {
    EXPECT_EQ(tail.summary.idcs[j].peak_power.value(),
              reference.summary.idcs[j].peak_power.value());
    EXPECT_EQ(units::as_mwh(tail.summary.idcs[j].energy),
              units::as_mwh(reference.summary.idcs[j].energy));
    EXPECT_EQ(tail.summary.idcs[j].cost.value(),
              reference.summary.idcs[j].cost.value());
  }
  EXPECT_EQ(tail.telemetry.steps, reference.telemetry.steps);
  EXPECT_EQ(tail.telemetry.solver_calls, reference.telemetry.solver_calls);
  EXPECT_EQ(tail.telemetry.solver_iterations,
            reference.telemetry.solver_iterations);
  EXPECT_EQ(tail.telemetry.status_optimal,
            reference.telemetry.status_optimal);
  EXPECT_EQ(tail.telemetry.warm_start_hits,
            reference.telemetry.warm_start_hits);
  EXPECT_EQ(tail.telemetry.fallback_holds, reference.telemetry.fallback_holds);
  EXPECT_EQ(tail.telemetry.invariants.checks,
            reference.telemetry.invariants.checks);
  EXPECT_EQ(tail.telemetry.invariants.by_kind,
            reference.telemetry.invariants.by_kind);

  ASSERT_NE(tail.trace, nullptr);
  ASSERT_NE(reference.trace, nullptr);
  EXPECT_EQ(tail.trace->time_s, reference.trace->time_s);
  EXPECT_EQ(tail.trace->power_w, reference.trace->power_w);
  EXPECT_EQ(tail.trace->servers_on, reference.trace->servers_on);
  EXPECT_EQ(tail.trace->idc_load_rps, reference.trace->idc_load_rps);
  EXPECT_EQ(tail.trace->price_per_mwh, reference.trace->price_per_mwh);
  EXPECT_EQ(tail.trace->cumulative_cost, reference.trace->cumulative_cost);
}

TEST(Checkpoint, ResumeWithFaultedFeedsReplaysExactly) {
  core::Scenario scenario = core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.duration_s = units::Seconds{1200.0};  // 60 steps

  RuntimeOptions options;
  options.price_faults.drop_probability = 0.2;
  options.price_faults.late_probability = 0.3;
  options.price_faults.max_lateness_s = 35.0;
  options.price_faults.jitter_s = 2.0;
  options.price_faults.seed = 9;
  options.workload_faults.drop_probability = 0.15;
  options.workload_faults.jitter_s = 1.0;
  options.workload_faults.seed = 10;

  ControlRuntime uninterrupted(scenario, options);
  const RuntimeResult reference = uninterrupted.run();
  EXPECT_GT(reference.stats.dropped_ticks, 0u);

  RuntimeOptions partial = options;
  partial.stop_after_step = 23;
  ControlRuntime killed(scenario, partial);
  killed.run();

  ControlRuntime resumed(scenario, options, killed.checkpoint());
  const RuntimeResult tail = resumed.run();

  // Stateless fault injection: the resumed feeds replay the identical
  // drop/lateness pattern, so even a faulted run resumes exactly.
  EXPECT_EQ(tail.summary.total_cost.value(),
            reference.summary.total_cost.value());
  EXPECT_EQ(tail.stats.dropped_ticks, reference.stats.dropped_ticks);
  EXPECT_EQ(tail.stats.late_ticks, reference.stats.late_ticks);
  EXPECT_EQ(tail.stats.stale_price_steps, reference.stats.stale_price_steps);
  EXPECT_EQ(tail.stats.stale_workload_steps,
            reference.stats.stale_workload_steps);
  ASSERT_NE(tail.trace, nullptr);
  ASSERT_NE(reference.trace, nullptr);
  EXPECT_EQ(tail.trace->total_power_w, reference.trace->total_power_w);
  EXPECT_EQ(tail.trace->cumulative_cost, reference.trace->cumulative_cost);
}

// Demand-charge billing + per-IDC storage: the scenario variant whose
// checkpoint carries the /2 additions (meter peaks, SoC, EWMA baseline,
// grid/SoC trace columns).
core::Scenario storage_scenario() {
  core::Scenario scenario =
      core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.duration_s = units::Seconds{1600.0};  // 80 steps
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

TEST(Checkpoint, BillingPeaksAndSocResumeBitIdentically) {
  const core::Scenario scenario = storage_scenario();
  ControlRuntime uninterrupted(scenario, RuntimeOptions{});
  const RuntimeResult reference = uninterrupted.run();
  EXPECT_TRUE(reference.completed);

  // Kill mid-run and push the checkpoint through the JSON codec, as a
  // real kill/restart would.
  RuntimeOptions partial;
  partial.stop_after_step = 31;
  ControlRuntime killed(scenario, partial);
  killed.run();
  const RuntimeCheckpoint checkpoint = RuntimeCheckpoint::from_json(
      parse_json(dump_json(killed.checkpoint().to_json())));
  EXPECT_EQ(checkpoint.controller.battery_soc_j.size(), 3u);
  EXPECT_EQ(checkpoint.controller.billing.cycle_peaks_w.size(), 3u);
  EXPECT_GT(checkpoint.controller.billing.cycle_peaks_w[0], 0.0);

  ControlRuntime resumed(scenario, RuntimeOptions{}, checkpoint);
  const RuntimeResult tail = resumed.run();
  EXPECT_TRUE(tail.completed);

  // The metered grid series, the SoC trajectory and the final bill all
  // match the uninterrupted run double-for-double.
  ASSERT_NE(tail.trace, nullptr);
  ASSERT_NE(reference.trace, nullptr);
  EXPECT_EQ(tail.trace->grid_power_w, reference.trace->grid_power_w);
  EXPECT_EQ(tail.trace->battery_soc_j, reference.trace->battery_soc_j);
  EXPECT_EQ(tail.summary.bill.energy.value(),
            reference.summary.bill.energy.value());
  EXPECT_EQ(tail.summary.bill.demand.value(),
            reference.summary.bill.demand.value());
  EXPECT_EQ(tail.summary.bill.total().value(),
            reference.summary.bill.total().value());
}

TEST(Checkpoint, LegacySchemaOneCheckpointStillLoads) {
  const core::Scenario scenario = stateful_scenario();
  RuntimeOptions partial;
  partial.stop_after_step = 20;
  ControlRuntime runtime(scenario, partial);
  runtime.run();
  const JsonValue modern = runtime.checkpoint().to_json();

  // Rebuild the JSON as a /1-era writer produced it: old schema id, no
  // battery/billing controller state, a 5-kind invariant counter vector
  // (pre-soc_bounds).
  JsonValue::Object root = modern.as_object();
  root["schema"] = JsonValue(std::string("gridctl.runtime.checkpoint/1"));
  JsonValue::Object controller = modern.at("controller").as_object();
  controller.erase("battery_soc_j");
  controller.erase("battery_avg_w");
  controller.erase("billing");
  root["controller"] = JsonValue(std::move(controller));
  JsonValue::Object telemetry = modern.at("telemetry").as_object();
  JsonValue::Array by_kind = telemetry.at("invariants_by_kind").as_array();
  by_kind.pop_back();
  telemetry["invariants_by_kind"] = JsonValue(std::move(by_kind));
  root["telemetry"] = JsonValue(std::move(telemetry));

  const RuntimeCheckpoint legacy =
      RuntimeCheckpoint::from_json(JsonValue(std::move(root)));
  EXPECT_TRUE(legacy.controller.battery_soc_j.empty());
  EXPECT_TRUE(legacy.controller.billing.cycle_peaks_w.empty());
  // The missing features default to off; the run resumes and completes.
  ControlRuntime resumed(scenario, RuntimeOptions{}, legacy);
  EXPECT_TRUE(resumed.run().completed);
}

TEST(Checkpoint, RetiredStepWallHistogramKeyStillLoads) {
  const core::Scenario scenario = stateful_scenario();
  ControlRuntime uninterrupted(scenario, RuntimeOptions{});
  const RuntimeResult reference = uninterrupted.run();

  RuntimeOptions partial;
  partial.stop_after_step = 20;
  ControlRuntime runtime(scenario, partial);
  runtime.run();
  const JsonValue modern = runtime.checkpoint().to_json();
  EXPECT_FALSE(modern.at("stats").has("step_wall_hist"));

  // Checkpoints written before the runtime's duplicate per-step
  // histogram was folded into telemetry.step_hist carry it under stats;
  // the loader ignores the key.
  JsonValue::Object root = modern.as_object();
  JsonValue::Object stats = modern.at("stats").as_object();
  stats.emplace("step_wall_hist", modern.at("telemetry").at("step_hist"));
  root["stats"] = JsonValue(std::move(stats));
  const RuntimeCheckpoint older =
      RuntimeCheckpoint::from_json(JsonValue(std::move(root)));

  ControlRuntime resumed(scenario, RuntimeOptions{}, older);
  const RuntimeResult tail = resumed.run();
  EXPECT_TRUE(tail.completed);
  EXPECT_EQ(tail.summary.total_cost.value(),
            reference.summary.total_cost.value());
  EXPECT_EQ(tail.telemetry.step_hist.samples, scenario.num_steps());
}

TEST(Checkpoint, ValidationRejectsScenarioMismatch) {
  const core::Scenario scenario = stateful_scenario();
  RuntimeOptions partial;
  partial.stop_after_step = 5;
  ControlRuntime runtime(scenario, partial);
  runtime.run();
  const RuntimeCheckpoint checkpoint = runtime.checkpoint();

  core::Scenario other = scenario;
  other.duration_s = units::Seconds{40.0};  // 2 steps < checkpoint progress
  EXPECT_THROW(ControlRuntime(other, RuntimeOptions{}, checkpoint),
               InvalidArgument);

  RuntimeCheckpoint corrupted = checkpoint;
  corrupted.held_prices.pop_back();
  EXPECT_THROW(ControlRuntime(scenario, RuntimeOptions{}, corrupted),
               InvalidArgument);
}

TEST(Checkpoint, SchemaIsChecked) {
  JsonValue::Object root;
  root.emplace("schema", JsonValue(std::string("bogus/9")));
  EXPECT_THROW(RuntimeCheckpoint::from_json(JsonValue(std::move(root))),
               InvalidArgument);
}

}  // namespace
}  // namespace gridctl::runtime
