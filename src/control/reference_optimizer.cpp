#include "control/reference_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "datacenter/latency.hpp"
#include "solvers/lp_simplex.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace gridctl::control {

using datacenter::Allocation;
using datacenter::IdcConfig;
using linalg::Matrix;
using linalg::Vector;

double load_cap_for_capacity(const IdcConfig& idc) {
  return datacenter::capacity_for_latency(
             idc.max_servers, idc.power.service_rate, idc.latency_bound_s)
      .value();
}

double load_cap_for_budget(const IdcConfig& idc, double budget_w) {
  if (!std::isfinite(budget_w)) return load_cap_for_capacity(idc);
  const double mu = idc.power.service_rate.value();
  const double b0 = idc.power.idle_w.value();
  const double b1 = idc.power.watts_per_rps();
  // With m = lambda/mu + 1/(mu D) (continuous eq. 35):
  //   P = b1 lambda + b0 m = (b1 + b0/mu) lambda + b0 / (mu D)
  const double fixed = b0 / (mu * idc.latency_bound_s.value());
  const double slope = b1 + b0 / mu;
  const double cap = (budget_w - fixed) / slope;
  return std::clamp(cap, 0.0, load_cap_for_capacity(idc));
}

namespace {

// Picks the split of the per-IDC loads over the portals, not the solver:
// every size takes the greedy fill below. Under this variable count, with
// no demand-charge shadow, the split is a transportation vertex: the
// published trajectories and the soft-budget pins were recorded with a
// vertex split on these shapes, and the product form breaks
// HardBudget.SoftVariantViolatesTransiently. At and above it, and under a
// shadow, the split is the product form: a vertex there leaves the QP's
// nonnegativity rows active at warm start and slows its convergence.
constexpr std::size_t kGreedyGateVars = 4096;

double unit_cost(const ReferenceProblem& problem, std::size_t j) {
  const auto& idc = problem.idcs[j];
  const double per_rps =
      problem.basis == CostBasis::kPowerIntegral
          ? idc.power.watts_per_rps() +
                idc.power.idle_w.value() / idc.power.service_rate.value()
          : 1.0;
  return problem.prices[j] * per_rps;
}

struct Segment {
  std::size_t idc;
  double cap;
  double cost;
};

// Transportation LP over lambda_ij (portal-major flattening):
//   min sum_ij cost_j lambda_ij
//   s.t. sum_j lambda_ij = L_i          (portal conservation)
//        sum_i lambda_ij <= cap_j        (per-IDC load cap)
//        lambda >= 0
// The cost on lambda_ij depends only on the IDC column j, so the optimal
// per-IDC loads are the fill of the cheapest segments up to their caps:
// O(n log n + n·c) instead of a simplex run over a (c + n) × (n·c)
// tableau. Each IDC is one segment at its unit cost. Under a demand-
// charge shadow it is two: load that fits under the running billing-
// cycle peak at the plain unit cost, and load above it at the shadow-
// uplifted cost (prices[j] + peak_shadow_per_mwh). The per-IDC cost is
// then piecewise-linear convex in the load, so the fill stays exact.
// Returns the flattened lambda, or nothing when the caps cannot carry
// the demand.
std::optional<Vector> solve_allocation(const ReferenceProblem& problem,
                                       const std::vector<double>& caps) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  Vector x(n * c, 0.0);

  double total = 0.0;
  for (double demand : problem.portal_demands) total += demand;
  if (total <= 0.0) return x;

  const bool peaked = problem.peak_shadow_per_mwh > 0.0;
  std::vector<Segment> segments;
  segments.reserve(peaked ? 2 * n : n);
  for (std::size_t j = 0; j < n; ++j) {
    const double base_cost = unit_cost(problem, j);
    if (!peaked) {
      segments.push_back({j, caps[j], base_cost});
      continue;
    }
    const double peak =
        problem.cycle_peak_w.empty() ? 0.0 : problem.cycle_peak_w[j];
    const double below =
        std::min(caps[j], load_cap_for_budget(problem.idcs[j], peak));
    // The uplift scales with the same per-req/s factor as the price so
    // both cost bases rank the shadow consistently.
    const double uplift =
        problem.prices[j] > 0.0
            ? base_cost / problem.prices[j] * problem.peak_shadow_per_mwh
            : problem.peak_shadow_per_mwh;
    if (below > 0.0) segments.push_back({j, below, base_cost});
    if (caps[j] > below) {
      segments.push_back({j, caps[j] - below, base_cost + uplift});
    }
  }
  std::stable_sort(segments.begin(), segments.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.cost < b.cost;
                   });

  std::vector<double> loads(n, 0.0);
  double remaining = total;
  for (const Segment& seg : segments) {
    const double take = std::min(seg.cap, remaining);
    if (take <= 0.0) continue;
    loads[seg.idc] += take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
  if (remaining > 1e-9 * std::max(1.0, total)) return std::nullopt;

  if (!peaked && n * c < kGreedyGateVars) {
    // North-west-corner rule: portals in index order against the IDCs
    // in cost order (one segment each), drawing the loads down. Every
    // nonzero cell exhausts a portal's demand or an IDC's load, so at
    // most n + c - 1 cells are nonzero.
    std::size_t k = 0;
    for (std::size_t i = 0; i < c; ++i) {
      double need = problem.portal_demands[i];
      while (need > 0.0 && k < segments.size()) {
        const std::size_t j = segments[k].idc;
        const double take = std::min(need, loads[j]);
        x[i * n + j] = take;
        need -= take;
        loads[j] -= take;
        if (loads[j] <= 0.0) ++k;
      }
    }
    return x;
  }
  // Product form lambda_ij = L_i · load_j / L_total: meets both
  // marginals (row sums L_i, column sums load_j).
  for (std::size_t i = 0; i < c; ++i) {
    const double share = problem.portal_demands[i] / total;
    for (std::size_t j = 0; j < n; ++j) x[i * n + j] = share * loads[j];
  }
  return x;
}

}  // namespace

ReferenceSolution solve_reference(const ReferenceProblem& problem) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  require(n > 0, "solve_reference: need at least one IDC");
  require(c > 0, "solve_reference: need at least one portal");
  require(problem.prices.size() == n, "solve_reference: price size mismatch");
  require(problem.power_budgets_w.empty() || problem.power_budgets_w.size() == n,
          "solve_reference: budget size mismatch");
  require(problem.cycle_peak_w.empty() || problem.cycle_peak_w.size() == n,
          "solve_reference: cycle peak size mismatch");
  require(problem.peak_shadow_per_mwh >= 0.0,
          "solve_reference: negative peak shadow price");
  for (const auto& idc : problem.idcs) idc.validate();
  for (double demand : problem.portal_demands) {
    require(demand >= 0.0, "solve_reference: negative demand");
  }

  const auto budget = [&](std::size_t j) {
    return problem.power_budgets_w.empty()
               ? std::numeric_limits<double>::infinity()
               : problem.power_budgets_w[j];
  };

  std::vector<double> caps(n);
  for (std::size_t j = 0; j < n; ++j) {
    caps[j] = load_cap_for_budget(problem.idcs[j], budget(j));
  }

  ReferenceSolution solution;
  auto lambda = solve_allocation(problem, caps);
  if (!lambda) {
    // Budgets too tight for the demand: serve the workload anyway
    // (availability beats the budget) and report the relaxation.
    for (std::size_t j = 0; j < n; ++j) {
      caps[j] = load_cap_for_capacity(problem.idcs[j]);
    }
    lambda = solve_allocation(problem, caps);
    if (!lambda) {
      solution.feasible = false;  // demand exceeds fleet capacity
      return solution;
    }
    solution.budgets_relaxed = true;
  }

  solution.feasible = true;
  solution.allocation = Allocation::unflatten(*lambda, c, n);
  solution.idc_loads = units::raw_vector(solution.allocation.idc_loads());
  solution.servers.resize(n);
  solution.power_w.resize(n);
  solution.reference_power_w.resize(n);
  double cost_rate_w_price = 0.0;  // watts x $/MWh
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    const std::size_t m = std::min(
        datacenter::servers_for_latency(units::Rps{solution.idc_loads[j]},
                                        idc.power.service_rate,
                                        idc.latency_bound_s),
        idc.max_servers);
    solution.servers[j] = m;
    solution.power_w[j] =
        idc.power.idc_power(units::Rps{solution.idc_loads[j]}, m).value();
    solution.reference_power_w[j] = std::min(solution.power_w[j], budget(j));
    cost_rate_w_price += problem.prices[j] * solution.power_w[j];
  }
  // watts * $/MWh -> $/h: P[W] x 1h = P/1e6 MWh.
  solution.cost_rate_per_hour = cost_rate_w_price / units::kWattsPerMegawatt;
  return solution;
}

GreenReferenceSolution solve_green_reference(
    const GreenReferenceProblem& problem) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  require(n > 0 && c > 0, "solve_green_reference: empty problem");
  require(problem.prices.size() == n && problem.renewable_w.size() == n,
          "solve_green_reference: per-IDC vector size mismatch");
  for (const auto& idc : problem.idcs) idc.validate();
  for (double renewable : problem.renewable_w) {
    require(renewable >= 0.0, "solve_green_reference: negative renewables");
  }

  // Variables: [lambda_ij (portal-major, n*c) | g_j (n)].
  const std::size_t num_vars = n * c + n;
  solvers::LpProblem lp;
  lp.c.assign(num_vars, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    require(problem.prices[j] >= 0.0,
            "solve_green_reference: negative prices make the brown-power "
            "epigraph unbounded; use solve_reference for negative LMPs");
    lp.c[n * c + j] = problem.prices[j];
  }

  lp.a_eq = Matrix(c, num_vars);
  lp.b_eq.assign(c, 0.0);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) lp.a_eq(i, i * n + j) = 1.0;
    lp.b_eq[i] = problem.portal_demands[i];
  }

  // Rows: capacity caps (n) + brown-power epigraph (n).
  lp.a_ub = Matrix(2 * n, num_vars);
  lp.b_ub.assign(2 * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    for (std::size_t i = 0; i < c; ++i) lp.a_ub(j, i * n + j) = 1.0;
    lp.b_ub[j] = load_cap_for_capacity(idc);

    // slope * lambda_j - g_j <= renewable_j - fixed_j.
    const double slope =
        idc.power.watts_per_rps() +
        idc.power.idle_w.value() / idc.power.service_rate.value();
    const double fixed = idc.power.idle_w.value() /
                         (idc.power.service_rate.value() *
                          idc.latency_bound_s.value());
    for (std::size_t i = 0; i < c; ++i) lp.a_ub(n + j, i * n + j) = slope;
    lp.a_ub(n + j, n * c + j) = -1.0;
    lp.b_ub[n + j] = problem.renewable_w[j] - fixed;
  }

  const auto lp_result = solvers::solve_lp(lp);
  GreenReferenceSolution solution;
  if (lp_result.status != solvers::LpStatus::kOptimal) return solution;

  solution.feasible = true;
  linalg::Vector lambda(lp_result.x.begin(),
                        lp_result.x.begin() +
                            static_cast<std::ptrdiff_t>(n * c));
  solution.allocation = Allocation::unflatten(lambda, c, n);
  solution.idc_loads = units::raw_vector(solution.allocation.idc_loads());
  solution.servers.resize(n);
  solution.power_w.resize(n);
  solution.brown_power_w.resize(n);
  double brown_cost = 0.0, total_power = 0.0, brown_power = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    solution.servers[j] = std::min(
        datacenter::servers_for_latency(units::Rps{solution.idc_loads[j]},
                                        idc.power.service_rate,
                                        idc.latency_bound_s),
        idc.max_servers);
    solution.power_w[j] =
        idc.power.idc_power(units::Rps{solution.idc_loads[j]},
                            solution.servers[j])
            .value();
    solution.brown_power_w[j] =
        std::max(0.0, solution.power_w[j] - problem.renewable_w[j]);
    brown_cost += problem.prices[j] * solution.brown_power_w[j];
    total_power += solution.power_w[j];
    brown_power += solution.brown_power_w[j];
  }
  solution.brown_cost_rate_per_hour = brown_cost / units::kWattsPerMegawatt;
  solution.brown_energy_fraction =
      total_power > 0.0 ? brown_power / total_power : 0.0;
  return solution;
}

}  // namespace gridctl::control
