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

UnitsCheck check_units(const SimulationTrace& trace,
                       const SimulationSummary& summary) {
  const TraceTotals totals = integrate_trace(trace);
  const double cost = summary.total_cost.value();
  const double energy = summary.total_energy.value();
  const double cost_err = std::abs(totals.cost.value() - cost);
  const double energy_err = std::abs(totals.energy.value() - energy);
  UnitsCheck check;
  check.ok = cost_err <= 1e-9 * std::max(1.0, std::abs(cost)) &&
             energy_err <= 1e-9 * std::max(1.0, std::abs(energy));
  check.verdict = format(
      "typed re-integration %s (cost |d| $%.3g, energy |d| %.3g J over "
      "%.0f s)",
      check.ok ? "ok" : "MISMATCH", cost_err, energy_err,
      totals.duration.value());
  if (!check.ok) {
    check.detail = format("typed $%.17g vs summary $%.17g, typed %.17g J vs "
                          "summary %.17g J",
                          totals.cost.value(), cost, totals.energy.value(),
                          energy);
  }
  return check;
}

ClosedLoop::ClosedLoop(const Scenario& scenario, std::string policy)
    : fleet(scenario.idcs),
      queues(scenario.num_idcs()),
      last_power_w(scenario.num_idcs(), 0.0),
      scenario_(scenario) {
  const std::size_t n = scenario.num_idcs();
  trace.policy = std::move(policy);
  trace.ts_s = scenario.ts_s.value();
  trace.power_w.assign(n, {});
  trace.servers_on.assign(n, {});
  trace.idc_load_rps.assign(n, {});
  trace.price_per_mwh.assign(n, {});
  trace.latency_s.assign(n, {});
  trace.backlog_req.assign(n, {});
  trace.transient_delay_s.assign(n, {});
  trace.portal_rps.assign(scenario.num_portals(), {});
  // Storage columns and running SoC only when some IDC has a battery:
  // the no-storage trace layout (and the CSV schema) is unchanged.
  for (std::size_t j = 0; j < n; ++j) {
    const auto& battery = scenario.idcs[j].battery;
    if (!battery.present()) continue;
    if (soc_j.empty()) {
      trace.grid_power_w.assign(n, {});
      trace.battery_soc_j.assign(n, {});
      soc_j.assign(n, 0.0);
    }
    soc_j[j] = battery.initial_soc * battery.capacity.value();
  }
}

std::vector<units::PricePerMwh> ClosedLoop::prices_at(units::Seconds t) const {
  std::vector<units::PricePerMwh> prices(last_power_w.size());
  for (std::size_t j = 0; j < prices.size(); ++j) {
    prices[j] = scenario_.prices->price(scenario_.idcs[j].region, t,
                                        units::Watts{last_power_w[j]});
  }
  return prices;
}

std::vector<units::Rps> ClosedLoop::demands_at(units::Seconds t) const {
  // The workload module emits raw req/s series; type them at the edge.
  return units::typed_vector<units::Rps>(scenario_.workload->rates(t.value()));
}

PolicyDecision ClosedLoop::warm_start(engine::RunTelemetry* telemetry) {
  const Clock::time_point begin = Clock::now();
  const units::Seconds t_prev = std::max(
      units::Seconds::zero(), scenario_.start_time_s - units::Seconds{3600.0});
  OptimalPolicy seed(scenario_.idcs, scenario_.num_portals(),
                     scenario_.controller.cost_basis);
  PolicyContext context;
  context.time_s = t_prev;
  context.prices = prices_at(t_prev);
  context.portal_demands = demands_at(scenario_.start_time_s);
  PolicyDecision initial = seed.decide(context);
  fleet.set_operating_point(initial.allocation, initial.servers);
  for (std::size_t j = 0; j < last_power_w.size(); ++j) {
    last_power_w[j] = fleet.idc(j).power_w().value();
  }
  if (telemetry) {
    telemetry->warm_start_s =
        std::chrono::duration<double>(Clock::now() - begin).count();
  }
  return initial;
}

void ClosedLoop::record_start(const std::vector<units::PricePerMwh>& prices,
                              const std::vector<units::Rps>& demands) {
  record(units::Seconds::zero(), prices, demands, /*metered=*/false);
}

double ClosedLoop::finish_step(std::size_t k,
                               const std::vector<units::PricePerMwh>& prices,
                               const std::vector<units::Rps>& demands,
                               const PolicyDecision& decision,
                               Clock::time_point begin,
                               engine::RunTelemetry* telemetry) {
  const Clock::time_point decide_end = Clock::now();
  const std::size_t n = last_power_w.size();
  require(decision.allocation.portals() == trace.portal_rps.size() &&
              decision.allocation.idcs() == n,
          "ClosedLoop: policy returned wrong allocation shape");
  fleet.set_operating_point(decision.allocation, decision.servers);
  fleet.advance(scenario_.ts_s, prices);
  for (std::size_t j = 0; j < n; ++j) {
    last_power_w[j] = fleet.idc(j).power_w().value();
  }
  if (!soc_j.empty()) {
    // Metered draw = realized IT power minus the policy's battery
    // dispatch (clamped: a battery cannot push power into the grid).
    // Demand-responsive price models then see the metered series.
    for (std::size_t j = 0; j < n; ++j) {
      const double dispatch =
          decision.battery_w.empty() ? 0.0 : decision.battery_w[j];
      last_power_w[j] = std::max(0.0, last_power_w[j] - dispatch);
    }
    if (!decision.battery_soc_j.empty()) soc_j = decision.battery_soc_j;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = fleet.idc(j);
    queues[j].step(idc.assigned_load().value(),
                   static_cast<double>(idc.servers_on()) *
                       idc.config().power.service_rate.value(),
                   scenario_.ts_s.value());
  }
  const Clock::time_point plant_end = Clock::now();

  const units::Seconds t =
      scenario_.start_time_s + static_cast<double>(k) * scenario_.ts_s;
  record(t - scenario_.start_time_s + scenario_.ts_s, prices, demands,
         /*metered=*/true);
  const Clock::time_point end = Clock::now();

  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  if (telemetry) {
    telemetry->record_step(seconds(begin, decide_end),
                           seconds(decide_end, plant_end),
                           seconds(plant_end, end));
    if (decision.solver) {
      telemetry->record_solver(decision.solver->status,
                               decision.solver->iterations,
                               decision.solver->warm_started,
                               decision.solver->fallback_tier,
                               decision.solver->rho_updates);
    }
    telemetry->record_invariants(decision.invariants);
  }
  return seconds(begin, end);
}

void ClosedLoop::record(units::Seconds window_time,
                        const std::vector<units::PricePerMwh>& prices,
                        const std::vector<units::Rps>& demands,
                        bool metered) {
  const std::size_t n = trace.power_w.size();
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
  for (std::size_t i = 0; i < trace.portal_rps.size(); ++i) {
    trace.portal_rps[i].push_back(demands[i].value());
  }
  if (!trace.grid_power_w.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      trace.grid_power_w[j].push_back(
          metered ? last_power_w[j] : fleet.idc(j).power_w().value());
      trace.battery_soc_j[j].push_back(soc_j.empty() ? 0.0 : soc_j[j]);
    }
  }
  trace.total_power_w.push_back(fleet.total_power_w().value());
  trace.cumulative_cost.push_back(fleet.total_cost_dollars().value());
}

SimulationSummary ClosedLoop::summarize() const {
  const std::size_t n = scenario_.num_idcs();
  SimulationSummary summary;
  summary.policy = trace.policy;
  summary.total_cost = fleet.total_cost_dollars();
  summary.total_energy = fleet.total_energy_joules();
  // Bill the metered grid draw under the scenario tariff; without
  // storage the grid series is absent and the IT power series bills.
  summary.bill = market::compute_bill(
      scenario_.billing,
      trace.grid_power_w.empty() ? trace.power_w : trace.grid_power_w,
      trace.price_per_mwh, scenario_.start_time_s, scenario_.ts_s);
  summary.total_volatility = volatility(trace.total_power_w);
  summary.idcs.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    IdcSummary& idc_summary = summary.idcs[j];
    idc_summary.peak_power = peak(trace.power_w[j]);
    idc_summary.volatility = volatility(trace.power_w[j]);
    if (!scenario_.power_budgets_w.empty() &&
        std::isfinite(scenario_.power_budgets_w[j].value())) {
      idc_summary.budget = budget_compliance(
          trace.power_w[j], scenario_.power_budgets_w[j], scenario_.ts_s);
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
          delay > scenario_.idcs[j].latency_bound_s.value() * (1.0 + 1e-4)) {
        summary.sla_violation_time += scenario_.ts_s;
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
  // Telemetry run timing only; the trajectory never reads it.
  using clock = std::chrono::steady_clock;  // lint: nondet-ok
  const auto run_begin = clock::now();
  engine::RunTelemetry* telemetry = options.telemetry;

  scenario.validate();
  ClosedLoop loop(scenario, policy.name());
  if (options.warm_start) {
    const PolicyDecision initial = loop.warm_start(telemetry);
    if (auto* mpc = dynamic_cast<MpcPolicy*>(&policy)) {
      mpc->controller().reset_to(initial.allocation, initial.servers);
    }
  }
  loop.record_start(loop.prices_at(scenario.start_time_s),
                    loop.demands_at(scenario.start_time_s));

  const std::size_t steps = scenario.num_steps();
  PolicyContext context;
  for (std::size_t k = 0; k < steps; ++k) {
    context.step = k;
    context.time_s =
        scenario.start_time_s + static_cast<double>(k) * scenario.ts_s;
    context.prices = loop.prices_at(context.time_s);
    context.portal_demands = loop.demands_at(context.time_s);
    loop.step(k, context.prices, context.portal_demands,
              [&] { return policy.decide(context); }, telemetry);
  }

  SimulationResult result;
  result.summary = loop.summarize();
  if (options.record_trace) {
    result.trace = std::move(loop.trace);
  } else {
    // The summary above is computed from the full trace; the caller only
    // asked to keep the aggregates.
    result.trace.policy = result.summary.policy;
    result.trace.ts_s = scenario.ts_s.value();
  }
  if (telemetry) {
    telemetry->steps = steps;
    telemetry->total_s =
        std::chrono::duration<double>(clock::now() - run_begin).count();
  }
  return result;
}

}  // namespace gridctl::core
