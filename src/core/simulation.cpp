#include "core/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "datacenter/fluid_queue.hpp"
#include "engine/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace gridctl::core {

using datacenter::Fleet;

CsvTable SimulationTrace::to_csv() const {
  CsvTable table;
  table.header.push_back("time_s");
  const std::size_t idcs = power_w.size();
  const std::size_t portals = portal_rps.size();
  for (std::size_t j = 0; j < idcs; ++j) {
    table.header.push_back(format("power_mw_%zu", j));
    table.header.push_back(format("servers_%zu", j));
    table.header.push_back(format("load_rps_%zu", j));
    table.header.push_back(format("price_%zu", j));
    table.header.push_back(format("latency_ms_%zu", j));
    table.header.push_back(format("backlog_req_%zu", j));
    table.header.push_back(format("transient_delay_ms_%zu", j));
  }
  const bool storage = !grid_power_w.empty();
  if (storage) {
    for (std::size_t j = 0; j < idcs; ++j) {
      table.header.push_back(format("grid_power_mw_%zu", j));
      table.header.push_back(format("battery_soc_kwh_%zu", j));
    }
  }
  for (std::size_t i = 0; i < portals; ++i) {
    table.header.push_back(format("portal_rps_%zu", i));
  }
  table.header.push_back("total_power_mw");
  table.header.push_back("cumulative_cost");
  for (std::size_t k = 0; k < time_s.size(); ++k) {
    std::vector<double> row;
    row.push_back(time_s[k]);
    for (std::size_t j = 0; j < idcs; ++j) {
      row.push_back(units::watts_to_mw(power_w[j][k]));
      row.push_back(servers_on[j][k]);
      row.push_back(idc_load_rps[j][k]);
      row.push_back(price_per_mwh[j][k]);
      row.push_back(latency_s[j][k] * 1000.0);
      row.push_back(backlog_req[j][k]);
      row.push_back(transient_delay_s[j][k] * 1000.0);
    }
    if (storage) {
      for (std::size_t j = 0; j < idcs; ++j) {
        row.push_back(units::watts_to_mw(grid_power_w[j][k]));
        row.push_back(battery_soc_j[j][k] / 3.6e6);  // J -> kWh
      }
    }
    for (std::size_t i = 0; i < portals; ++i) row.push_back(portal_rps[i][k]);
    row.push_back(units::watts_to_mw(total_power_w[k]));
    row.push_back(cumulative_cost[k]);
    table.rows.push_back(std::move(row));
  }
  return table;
}

void record_step(SimulationTrace& trace, const datacenter::Fleet& fleet,
                 const std::vector<datacenter::FluidQueue>& queues,
                 units::Seconds window_time,
                 const std::vector<units::PricePerMwh>& prices,
                 const std::vector<units::Rps>& demands,
                 const std::vector<double>& grid_power_w,
                 const std::vector<double>& battery_soc_j) {
  const std::size_t n = trace.power_w.size();
  const std::size_t c = trace.portal_rps.size();
  trace.time_s.push_back(window_time.value());
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = fleet.idc(j);
    trace.power_w[j].push_back(idc.power_w().value());
    trace.servers_on[j].push_back(static_cast<double>(idc.servers_on()));
    trace.idc_load_rps[j].push_back(idc.assigned_load().value());
    trace.price_per_mwh[j].push_back(prices[j].value());
    const units::Seconds latency = idc.latency_s();
    trace.latency_s[j].push_back(
        std::isfinite(latency.value()) ? latency.value() : -1.0);
    trace.backlog_req[j].push_back(queues[j].backlog_req());
    const double capacity = static_cast<double>(idc.servers_on()) *
                            idc.config().power.service_rate.value();
    const double delay =
        queues[j].delay_estimate_s(idc.assigned_load().value(), capacity);
    trace.transient_delay_s[j].push_back(std::isfinite(delay) ? delay : -1.0);
  }
  for (std::size_t i = 0; i < c; ++i) {
    trace.portal_rps[i].push_back(demands[i].value());
  }
  if (!trace.grid_power_w.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      trace.grid_power_w[j].push_back(grid_power_w.empty()
                                          ? fleet.idc(j).power_w().value()
                                          : grid_power_w[j]);
      trace.battery_soc_j[j].push_back(
          battery_soc_j.empty() ? 0.0 : battery_soc_j[j]);
    }
  }
  trace.total_power_w.push_back(fleet.total_power_w().value());
  trace.cumulative_cost.push_back(fleet.total_cost_dollars().value());
}

TraceTotals integrate_trace(const SimulationTrace& trace) {
  TraceTotals totals;
  const units::Seconds dt{trace.ts_s};
  // Row 0 is the pre-window warm-start state; rows 1..K each cover one
  // elapsed period at the recorded (piecewise-constant) power.
  for (std::size_t k = 1; k < trace.total_power_w.size(); ++k) {
    totals.energy += units::Watts{trace.total_power_w[k]} * dt;
    totals.duration += dt;
  }
  for (std::size_t j = 0; j < trace.power_w.size(); ++j) {
    for (std::size_t k = 1; k < trace.power_w[j].size(); ++k) {
      const units::Joules step_energy = units::Watts{trace.power_w[j][k]} * dt;
      totals.cost += step_energy * units::PricePerMwh{trace.price_per_mwh[j][k]};
    }
  }
  return totals;
}

SimulationSummary summarize_trace(const Scenario& scenario,
                                  const SimulationTrace& trace,
                                  const datacenter::Fleet& fleet,
                                  const std::string& policy_name) {
  const std::size_t n = scenario.num_idcs();
  SimulationSummary summary;
  summary.policy = policy_name;
  summary.total_cost = fleet.total_cost_dollars();
  summary.total_energy = fleet.total_energy_joules();
  // Bill the metered grid draw under the scenario tariff; without
  // storage the grid series is absent and the IT power series bills.
  summary.bill = market::compute_bill(
      scenario.billing,
      trace.grid_power_w.empty() ? trace.power_w : trace.grid_power_w,
      trace.price_per_mwh, scenario.start_time_s, scenario.ts_s);
  summary.total_volatility = volatility(trace.total_power_w);
  summary.idcs.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    IdcSummary& idc_summary = summary.idcs[j];
    idc_summary.peak_power = peak(trace.power_w[j]);
    idc_summary.volatility = volatility(trace.power_w[j]);
    if (!scenario.power_budgets_w.empty() &&
        std::isfinite(scenario.power_budgets_w[j].value())) {
      idc_summary.budget = budget_compliance(
          trace.power_w[j], scenario.power_budgets_w[j], scenario.ts_s);
    }
    idc_summary.mean_latency = units::Seconds{mean(trace.latency_s[j])};
    idc_summary.energy = fleet.idc(j).energy_joules();
    idc_summary.cost = fleet.idc(j).cost_dollars();
    summary.overload_time += fleet.idc(j).overload_seconds();
    // Transient SLA audit from the fluid queues. An IDC pinned at its
    // capacity cap sits exactly on the bound; the small relative margin
    // keeps float jitter from counting those samples as violations.
    for (std::size_t k = 0; k < trace.transient_delay_s[j].size(); ++k) {
      const double delay = trace.transient_delay_s[j][k];
      if (delay < 0.0 ||
          delay > scenario.idcs[j].latency_bound_s.value() * (1.0 + 1e-4)) {
        summary.sla_violation_time += scenario.ts_s;
      }
      summary.max_backlog =
          std::max(summary.max_backlog,
                   units::Requests{trace.backlog_req[j][k]});
    }
  }
  return summary;
}

SimulationResult run_simulation(const Scenario& scenario,
                                AllocationPolicy& policy,
                                const SimulationOptions& options) {
  // Telemetry step timing only; the trajectory never reads it.
  using clock = std::chrono::steady_clock;  // lint: nondet-ok
  const auto seconds_between = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  engine::RunTelemetry* telemetry = options.telemetry;
  const auto run_begin = clock::now();

  scenario.validate();
  const std::size_t n = scenario.num_idcs();
  const std::size_t c = scenario.num_portals();
  const std::size_t steps = scenario.num_steps();

  Fleet fleet(scenario.idcs);

  // Previous-step power per IDC, fed back into demand-responsive price
  // models (zero before the first step).
  std::vector<units::Watts> last_power(n, units::Watts::zero());

  const auto prices_at = [&](units::Seconds t) {
    std::vector<units::PricePerMwh> prices(n, units::PricePerMwh::zero());
    for (std::size_t j = 0; j < n; ++j) {
      prices[j] = scenario.prices->price(scenario.idcs[j].region, t,
                                         last_power[j]);
    }
    return prices;
  };
  const auto demands_at = [&](units::Seconds t) {
    // The workload module emits raw req/s series; type them at the edge.
    return units::typed_vector<units::Rps>(scenario.workload->rates(t.value()));
  };

  if (options.warm_start) {
    // Converged operating point for the hour before the window, computed
    // with the same cost basis the scenario's controller uses.
    const units::Seconds t_prev = std::max(
        units::Seconds::zero(), scenario.start_time_s - units::Seconds{3600.0});
    OptimalPolicy seed(scenario.idcs, c, scenario.controller.cost_basis);
    PolicyContext seed_context;
    seed_context.time_s = t_prev;
    seed_context.prices = prices_at(t_prev);
    seed_context.portal_demands = demands_at(scenario.start_time_s);
    const auto initial = seed.decide(seed_context);
    fleet.set_operating_point(initial.allocation, initial.servers);
    if (auto* mpc = dynamic_cast<MpcPolicy*>(&policy)) {
      mpc->controller().reset_to(initial.allocation, initial.servers);
    }
    last_power = fleet.power_by_idc_w();
    if (telemetry) {
      telemetry->warm_start_s = seconds_between(run_begin, clock::now());
    }
  }

  SimulationResult result;
  SimulationTrace& trace = result.trace;
  trace.policy = policy.name();
  trace.ts_s = scenario.ts_s.value();
  trace.power_w.assign(n, {});
  trace.servers_on.assign(n, {});
  trace.idc_load_rps.assign(n, {});
  trace.price_per_mwh.assign(n, {});
  trace.latency_s.assign(n, {});
  trace.backlog_req.assign(n, {});
  trace.transient_delay_s.assign(n, {});
  trace.portal_rps.assign(c, {});

  // Storage columns and running SoC, only when some IDC has a battery —
  // the no-storage trace layout (and the CSV schema) is unchanged.
  bool any_battery = false;
  for (const auto& idc : scenario.idcs) {
    if (idc.battery.present()) any_battery = true;
  }
  std::vector<double> last_soc_j;
  if (any_battery) {
    trace.grid_power_w.assign(n, {});
    trace.battery_soc_j.assign(n, {});
    last_soc_j.resize(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const auto& battery = scenario.idcs[j].battery;
      if (battery.present()) {
        last_soc_j[j] = battery.initial_soc * battery.capacity.value();
      }
    }
  }

  std::vector<datacenter::FluidQueue> queues(n);

  const auto record = [&](units::Seconds window_time,
                          const std::vector<units::PricePerMwh>& prices,
                          const std::vector<units::Rps>& demands,
                          const std::vector<double>& grid_w = {}) {
    record_step(trace, fleet, queues, window_time, prices, demands, grid_w,
                last_soc_j);
  };

  // Row 0 is the warm-start operating point (the pre-transition state),
  // so policy-induced jumps at the window start are visible in the
  // recorded series — the paper's figures plot the same way.
  record(units::Seconds::zero(), prices_at(scenario.start_time_s),
         demands_at(scenario.start_time_s));

  for (std::size_t k = 0; k < steps; ++k) {
    const units::Seconds t =
        scenario.start_time_s + static_cast<double>(k) * scenario.ts_s;
    const auto step_begin = clock::now();

    PolicyContext context;
    context.step = k;
    context.time_s = t;
    context.prices = prices_at(t);
    context.portal_demands = demands_at(t);

    const PolicyDecision decision = policy.decide(context);
    const auto decide_end = clock::now();
    require(decision.allocation.portals() == c &&
                decision.allocation.idcs() == n,
            "run_simulation: policy returned wrong allocation shape");
    fleet.set_operating_point(decision.allocation, decision.servers);
    fleet.advance(scenario.ts_s, context.prices);
    last_power = fleet.power_by_idc_w();
    std::vector<double> grid_w;
    if (any_battery) {
      // Metered draw = realized IT power minus the policy's battery
      // dispatch (clamped: a battery cannot push power into the grid).
      // Demand-responsive price models then see the metered series.
      grid_w.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        const double dispatch =
            decision.battery_w.empty() ? 0.0 : decision.battery_w[j];
        grid_w[j] = std::max(0.0, last_power[j].value() - dispatch);
        last_power[j] = units::Watts{grid_w[j]};
      }
      if (!decision.battery_soc_j.empty()) last_soc_j = decision.battery_soc_j;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const auto& idc = fleet.idc(j);
      queues[j].step(idc.assigned_load().value(),
                     static_cast<double>(idc.servers_on()) *
                         idc.config().power.service_rate.value(),
                     scenario.ts_s.value());
    }
    const auto plant_end = clock::now();

    record(t - scenario.start_time_s + scenario.ts_s, context.prices,
           context.portal_demands, grid_w);

    if (telemetry) {
      const auto step_end = clock::now();
      telemetry->policy_s += seconds_between(step_begin, decide_end);
      telemetry->plant_s += seconds_between(decide_end, plant_end);
      telemetry->record_s += seconds_between(plant_end, step_end);
      telemetry->step_hist.record(seconds_between(step_begin, step_end) *
                                  1e6);
      if (decision.solver) {
        telemetry->record_solver(decision.solver->status,
                                 decision.solver->iterations,
                                 decision.solver->warm_started,
                                 decision.solver->fallback_tier,
                                 decision.solver->rho_updates);
      }
      telemetry->record_invariants(decision.invariants);
    }
  }

  result.summary = summarize_trace(scenario, trace, fleet, policy.name());

  if (telemetry) {
    telemetry->steps = steps;
    telemetry->total_s = seconds_between(run_begin, clock::now());
  }
  if (!options.record_trace) {
    // The summary above is computed from the full trace; the caller only
    // asked to keep the aggregates.
    result.trace = SimulationTrace{};
    result.trace.policy = result.summary.policy;
    result.trace.ts_s = scenario.ts_s.value();
  }
  return result;
}

}  // namespace gridctl::core
