#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "check/invariants.hpp"
#include "control/reference_optimizer.hpp"
#include "core/cost_controller.hpp"
#include "datacenter/fleet.hpp"
#include "datacenter/fluid_queue.hpp"
#include "workload/predictor.hpp"

namespace gridbench {

namespace core = gridctl::core;
namespace units = gridctl::units;

namespace {

struct Mismatches {
  ReplayLayers& out;
  void expect(bool same, const char* what, std::size_t tick, std::size_t j) {
    if (same) return;
    if (out.mismatches++ == 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s differs at tick %zu, index %zu",
                    what, tick, j);
      out.first_mismatch = buf;
    }
  }
};

}  // namespace

ReplayLayers replay_layers(const core::Scenario& scenario,
                           const gridctl::runtime::RuntimeCheckpoint& start,
                           const core::SimulationTrace& trace,
                           std::size_t ticks, SpanRecorder& spans) {
  ReplayLayers out;
  Mismatches mismatch{out};
  const std::size_t n = scenario.num_idcs();
  const std::size_t c = scenario.num_portals();
  const core::ControllerParams& params = scenario.controller;
  const double ts = scenario.ts_s.value();
  const bool trajectory = params.predict_workload && params.reference_trajectory;

  core::CostController controller(core::controller_config_from(scenario));
  controller.restore(start.controller);
  std::vector<gridctl::workload::ArPredictor> predictors;
  for (const auto& state : start.controller.predictors) {
    predictors.emplace_back(params.ar_order);
    predictors.back().restore(state);
  }
  gridctl::check::InvariantChecker checker(
      scenario.idcs, c, scenario.power_budgets_w,
      params.budget_hard_constraints, params.sleep, params.solver.invariants);
  gridctl::datacenter::Fleet fleet(scenario.idcs);
  std::vector<gridctl::datacenter::FluidQueue> queues(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = start.fleet[j];
    fleet.idc(j).restore_state(idc.servers_on, units::Rps{idc.load_rps},
                               units::Joules{idc.energy_joules},
                               units::Dollars{idc.cost_dollars},
                               units::Seconds{idc.overload_seconds});
    queues[j].restore(start.queue_backlogs_req[j]);
  }
  double fleet_capacity = 0.0;
  for (const auto& idc : scenario.idcs) {
    fleet_capacity += idc.max_capacity().value();
  }

  std::vector<units::PricePerMwh> prices(n);
  std::vector<units::Rps> demands(c);
  std::vector<double> predicted(c);
  std::vector<std::vector<double>> ahead(params.horizons.prediction,
                                         std::vector<double>(c));
  for (std::size_t k = 0; k < ticks; ++k) {
    const std::size_t step = static_cast<std::size_t>(start.next_step) + k;
    const std::size_t row = step + 1;
    const double t = scenario.start_time_s.value() + static_cast<double>(step) * ts;
    const bool timed_tick = k > 0;
    const auto tick = static_cast<std::uint32_t>(step);
    const std::int32_t root = spans.begin("replay.tick", -1, tick);

    std::int32_t span = spans.begin("market.price", root, tick);
    auto begin = Clock::now();
    for (std::size_t j = 0; j < n; ++j) {
      prices[j] = scenario.prices->price(scenario.idcs[j].region,
                                         units::Seconds{t},
                                         units::Watts{trace.power_w[j][row - 1]});
    }
    if (timed_tick) out.price_s += seconds_since(begin);
    spans.end(span);
    for (std::size_t j = 0; j < n; ++j) {
      mismatch.expect(prices[j].value() == trace.price_per_mwh[j][row],
                      "price", step, j);
    }
    for (std::size_t i = 0; i < c; ++i) {
      demands[i] = units::Rps{trace.portal_rps[i][row]};
    }

    if (!predictors.empty()) {
      span = spans.begin("workload.predict", root, tick);
      begin = Clock::now();
      for (std::size_t i = 0; i < c; ++i) {
        predictors[i].observe(demands[i].value());
        predicted[i] = predictors[i].predict(1);
        if (trajectory) {
          for (std::size_t s = 0; s < ahead.size(); ++s) {
            ahead[s][i] = predictors[i].predict(s + 1);
          }
        }
      }
      if (timed_tick) out.predict_s += seconds_since(begin);
      spans.end(span);
    }

    span = spans.begin("core.step", root, tick);
    begin = Clock::now();
    const core::CostController::Decision decision =
        controller.step(prices, demands);
    if (timed_tick) out.step_s += seconds_since(begin);
    spans.end(span);
    out.qp_iters_max = std::max(out.qp_iters_max, decision.mpc_iterations);
    const auto loads = decision.allocation.idc_loads();
    for (std::size_t j = 0; j < n; ++j) {
      mismatch.expect(loads[j].value() == trace.idc_load_rps[j][row],
                      "allocation", step, j);
      mismatch.expect(static_cast<double>(decision.servers[j]) ==
                          trace.servers_on[j][row],
                      "servers", step, j);
    }
    if (!predictors.empty()) {
      double total = 0.0;
      for (double d : predicted) total += d;
      // The controller rescales an over-capacity forecast; compare only
      // the unscaled case.
      if (total <= fleet_capacity) {
        for (std::size_t i = 0; i < c; ++i) {
          mismatch.expect(predicted[i] == decision.predicted_demands[i],
                          "prediction", step, i);
        }
      }
    }

    span = spans.begin("control.reference", root, tick);
    begin = Clock::now();
    gridctl::control::ReferenceProblem problem;
    problem.idcs = scenario.idcs;
    problem.prices = units::raw_vector(prices);
    problem.portal_demands = decision.predicted_demands;
    problem.power_budgets_w = units::raw_vector(scenario.power_budgets_w);
    problem.basis = params.cost_basis;
    const auto reference = gridctl::control::solve_reference(problem);
    std::uint64_t calls = 1;
    if (trajectory) {
      for (const auto& row_demands : ahead) {
        problem.portal_demands = row_demands;
        (void)gridctl::control::solve_reference(problem);
        ++calls;
      }
    }
    if (timed_tick) {
      out.reference_s += seconds_since(begin);
      out.reference_calls += calls;
    }
    spans.end(span);
    for (std::size_t j = 0; j < n; ++j) {
      mismatch.expect(reference.reference_power_w[j] ==
                          decision.reference.reference_power_w[j],
                      "reference", step, j);
    }

    span = spans.begin("check.invariant", root, tick);
    begin = Clock::now();
    const auto violations = checker.check(
        decision.allocation, decision.servers, decision.predicted_power_w,
        units::raw_vector(demands), decision.battery_soc_j, decision.battery_w);
    if (timed_tick) out.check_s += seconds_since(begin);
    spans.end(span);
    mismatch.expect(violations.size() == decision.violations.size(),
                    "violations", step, 0);

    span = spans.begin("datacenter.plant", root, tick);
    begin = Clock::now();
    fleet.set_operating_point(decision.allocation, decision.servers);
    fleet.advance(scenario.ts_s, prices);
    for (std::size_t j = 0; j < n; ++j) {
      const auto& idc = fleet.idc(j);
      queues[j].step(idc.assigned_load().value(),
                     static_cast<double>(idc.servers_on()) *
                         idc.config().power.service_rate.value(),
                     ts);
    }
    if (timed_tick) out.plant_s += seconds_since(begin);
    spans.end(span);
    const auto power = fleet.power_by_idc_w();
    for (std::size_t j = 0; j < n; ++j) {
      mismatch.expect(power[j].value() == trace.power_w[j][row], "power", step,
                      j);
      mismatch.expect(queues[j].backlog_req() == trace.backlog_req[j][row],
                      "backlog", step, j);
    }
    spans.end(root);
    if (timed_tick) ++out.timed_ticks;
  }
  return out;
}

}  // namespace gridbench
