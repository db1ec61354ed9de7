// Differential test: solve_reference's greedy fill against the dense
// simplex solving the same transportation LP (paper eq. 46). The greedy
// is exact because the LP's cost on lambda_ij depends only on the IDC
// column j; this suite holds it to the simplex on feasibility, the
// budget relaxation, the per-IDC loads and the objective, and checks
// the split it emits: exact portal marginals, loads within the caps,
// and at most n + c - 1 nonzeros where the split is a vertex.
#include "control/reference_optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <vector>

#include "solvers/lp_simplex.hpp"
#include "util/random.hpp"

namespace gridctl::control {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Below this many lambda_ij the zero-shadow split is a vertex.
constexpr std::size_t kVertexSplitVars = 4096;

double unit_cost(const ReferenceProblem& problem, std::size_t j) {
  const auto& idc = problem.idcs[j];
  const double per_rps =
      problem.basis == CostBasis::kPowerIntegral
          ? idc.power.watts_per_rps() +
                idc.power.idle_w.value() / idc.power.service_rate.value()
          : 1.0;
  return problem.prices[j] * per_rps;
}

// The demand-charge uplift on load above an IDC's cycle peak.
double uplift(const ReferenceProblem& problem, std::size_t j) {
  return problem.prices[j] > 0.0 ? unit_cost(problem, j) / problem.prices[j] *
                                       problem.peak_shadow_per_mwh
                                 : problem.peak_shadow_per_mwh;
}

// Load each IDC carries under its cycle peak at the plain unit cost
// (all of it without a shadow).
double below_peak(const ReferenceProblem& problem, std::size_t j,
                  double cap) {
  if (problem.peak_shadow_per_mwh == 0.0) return cap;
  const double peak =
      problem.cycle_peak_w.empty() ? 0.0 : problem.cycle_peak_w[j];
  return std::min(cap, load_cap_for_budget(problem.idcs[j], peak));
}

double total_demand(const ReferenceProblem& problem) {
  double total = 0.0;
  for (double demand : problem.portal_demands) total += demand;
  return total;
}

std::vector<double> load_caps(const ReferenceProblem& problem, bool relaxed) {
  std::vector<double> caps(problem.idcs.size());
  for (std::size_t j = 0; j < caps.size(); ++j) {
    const double budget = relaxed || problem.power_budgets_w.empty()
                              ? kInf
                              : problem.power_budgets_w[j];
    caps[j] = load_cap_for_budget(problem.idcs[j], budget);
  }
  return caps;
}

struct OracleResult {
  bool feasible = false;
  bool budgets_relaxed = false;
  std::vector<double> loads;
  double objective = 0.0;
};

// The transportation LP over lambda_ij (portal-major):
//   min sum_ij cost_j lambda_ij
//   s.t. sum_j lambda_ij = L_i, sum_i lambda_ij <= cap_j, lambda >= 0.
// Under a demand-charge shadow the cost is piecewise linear per IDC, so
// the LP runs over two segment variables per IDC instead, [lo_j | hi_j]:
//   min sum_j cost_j lo_j + (cost_j + uplift_j) hi_j
//   s.t. sum_j (lo_j + hi_j) = L, lo_j <= below_j, lo_j + hi_j <= cap_j.
// Past the vertex-split gate the per-IDC form stands in for the flow LP
// too (zero uplift): it has the same optimal loads, and the flow LP's
// dense tableau would take seconds there.
solvers::LpResult solve_oracle_lp(const ReferenceProblem& problem,
                                  const std::vector<double>& caps,
                                  std::vector<double>& loads) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  solvers::LpProblem lp;
  if (problem.peak_shadow_per_mwh > 0.0 || n * c >= kVertexSplitVars) {
    lp.c.assign(2 * n, 0.0);
    lp.a_eq = linalg::Matrix(1, 2 * n);
    lp.b_eq = {total_demand(problem)};
    lp.a_ub = linalg::Matrix(2 * n, 2 * n);
    lp.b_ub.assign(2 * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      lp.c[j] = unit_cost(problem, j);
      lp.c[n + j] = unit_cost(problem, j) + uplift(problem, j);
      lp.a_eq(0, j) = lp.a_eq(0, n + j) = 1.0;
      lp.a_ub(j, j) = 1.0;
      lp.b_ub[j] = below_peak(problem, j, caps[j]);
      lp.a_ub(n + j, j) = lp.a_ub(n + j, n + j) = 1.0;
      lp.b_ub[n + j] = caps[j];
    }
    const auto result = solvers::solve_lp(lp);
    loads.assign(n, 0.0);
    if (result.status == solvers::LpStatus::kOptimal) {
      for (std::size_t j = 0; j < n; ++j) {
        loads[j] = result.x[j] + result.x[n + j];
      }
    }
    return result;
  }
  lp.c.assign(n * c, 0.0);
  lp.a_eq = linalg::Matrix(c, n * c);
  lp.b_eq = problem.portal_demands;
  lp.a_ub = linalg::Matrix(n, n * c);
  lp.b_ub = caps;
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      lp.c[i * n + j] = unit_cost(problem, j);
      lp.a_eq(i, i * n + j) = 1.0;
      lp.a_ub(j, i * n + j) = 1.0;
    }
  }
  const auto result = solvers::solve_lp(lp);
  loads.assign(n, 0.0);
  if (result.status == solvers::LpStatus::kOptimal) {
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = 0; j < n; ++j) loads[j] += result.x[i * n + j];
    }
  }
  return result;
}

// The simplex twin of solve_reference: budget caps first, capacity caps
// when the budgets cannot carry the demand.
OracleResult solve_oracle(const ReferenceProblem& problem) {
  OracleResult oracle;
  for (const bool relaxed : {false, true}) {
    const auto result =
        solve_oracle_lp(problem, load_caps(problem, relaxed), oracle.loads);
    if (result.status == solvers::LpStatus::kOptimal) {
      oracle.feasible = true;
      oracle.budgets_relaxed = relaxed;
      oracle.objective = result.objective;
      return oracle;
    }
  }
  return oracle;
}

// The objective of the per-IDC loads, plus the scale it is compared at.
double greedy_objective(const ReferenceProblem& problem,
                        const std::vector<double>& loads,
                        const std::vector<double>& caps, double& scale) {
  double objective = 0.0;
  scale = 0.0;
  for (std::size_t j = 0; j < loads.size(); ++j) {
    const double cost = unit_cost(problem, j);
    double term = cost * loads[j];
    if (problem.peak_shadow_per_mwh > 0.0) {
      const double above =
          std::max(0.0, loads[j] - below_peak(problem, j, caps[j]));
      term += uplift(problem, j) * above;
    }
    objective += term;
    scale += std::abs(term);
  }
  return objective;
}

datacenter::IdcConfig random_idc(Rng& rng, bool identical) {
  datacenter::IdcConfig idc;
  if (identical) {
    idc.max_servers = 2000;
    idc.power = datacenter::ServerPowerModel{
        units::Watts{150.0}, units::Watts{285.0}, units::Rps{2.0}};
    idc.latency_bound_s = units::Seconds{0.01};
    return idc;
  }
  idc.max_servers = static_cast<std::size_t>(rng.uniform_int(200, 5000));
  const double idle = rng.uniform(100.0, 200.0);
  idc.power = datacenter::ServerPowerModel{
      units::Watts{idle}, units::Watts{idle + rng.uniform(50.0, 200.0)},
      units::Rps{rng.uniform(1.0, 3.0)}};
  idc.latency_bound_s = units::Seconds{rng.uniform(0.01, 0.1)};
  return idc;
}

enum class Budgets { kNone, kLoose, kTight, kMixed };

// A seeded n x c instance whose demand is `fill` of the fleet capacity.
ReferenceProblem random_problem(Rng& rng, std::size_t n, std::size_t c,
                                double fill, Budgets budgets, bool ties) {
  ReferenceProblem problem;
  problem.basis =
      rng.uniform() < 0.5 ? CostBasis::kPowerIntegral : CostBasis::kPriceOnly;
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    problem.idcs.push_back(random_idc(rng, ties));
    capacity += load_cap_for_capacity(problem.idcs.back());
    // Tied instances draw prices from three levels; the others allow
    // the odd negative LMP.
    problem.prices.push_back(
        ties ? 20.0 * static_cast<double>(rng.uniform_int(1, 3))
             : rng.uniform(-10.0, 100.0));
  }
  std::vector<double> weights(c);
  double weight_sum = 0.0;
  for (double& weight : weights) {
    weight = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.1, 1.0);
    weight_sum += weight;
  }
  if (weight_sum == 0.0) weights[0] = weight_sum = 1.0;
  for (double weight : weights) {
    problem.portal_demands.push_back(fill * capacity * weight / weight_sum);
  }
  if (budgets == Budgets::kNone) return problem;
  for (const auto& idc : problem.idcs) {
    // The budget whose load cap is `share` of the IDC's capacity.
    const double share = budgets == Budgets::kLoose   ? rng.uniform(0.8, 1.0)
                         : budgets == Budgets::kTight ? rng.uniform(0.0, 0.3)
                                                      : rng.uniform(0.0, 1.0);
    const double load = share * load_cap_for_capacity(idc);
    const double slope = idc.power.watts_per_rps() +
                         idc.power.idle_w.value() / idc.power.service_rate.value();
    const double fixed = idc.power.idle_w.value() /
                         (idc.power.service_rate.value() *
                          idc.latency_bound_s.value());
    problem.power_budgets_w.push_back(slope * load + fixed);
  }
  return problem;
}

// The greedy's flags rest on a 1e-9 relative slack; skip instances whose
// caps land within 1e-6 of the demand, where the simplex's own tolerance
// decides the flag instead.
bool near_feasibility_boundary(const ReferenceProblem& problem) {
  const double total = total_demand(problem);
  for (const bool relaxed : {false, true}) {
    double cap_sum = 0.0;
    for (double cap : load_caps(problem, relaxed)) cap_sum += cap;
    if (std::abs(cap_sum - total) <= 1e-6 * std::max(1.0, total)) return true;
  }
  return false;
}

void expect_matches_oracle(const ReferenceProblem& problem) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  const double total = total_demand(problem);
  const double tol = std::max(1.0, total);
  const auto solution = solve_reference(problem);
  const auto oracle = solve_oracle(problem);

  ASSERT_EQ(solution.feasible, oracle.feasible);
  if (!oracle.feasible) return;
  ASSERT_EQ(solution.budgets_relaxed, oracle.budgets_relaxed);

  // Per-IDC loads. IDCs that tie on unit cost may trade load between
  // them at equal cost, so each tie class is compared as a whole.
  std::map<double, std::pair<double, double>> by_cost;  // greedy, oracle
  for (std::size_t j = 0; j < n; ++j) {
    auto& sums = by_cost[unit_cost(problem, j)];
    sums.first += solution.idc_loads[j];
    sums.second += oracle.loads[j];
  }
  for (const auto& [cost, sums] : by_cost) {
    EXPECT_NEAR(sums.first, sums.second, 1e-9 * tol) << "unit cost " << cost;
  }

  const auto caps = load_caps(problem, solution.budgets_relaxed);
  double scale = 0.0;
  const double objective =
      greedy_objective(problem, solution.idc_loads, caps, scale);
  EXPECT_LE(std::abs(objective - oracle.objective), 1e-12 * scale + 1e-9)
      << objective << " vs " << oracle.objective;

  // The split: exact portal marginals, nonnegative, within the caps.
  std::size_t nonzeros = 0;
  for (std::size_t i = 0; i < c; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double x = solution.allocation.at(i, j);
      EXPECT_GE(x, 0.0);
      row += x;
      if (x != 0.0) ++nonzeros;
    }
    EXPECT_NEAR(row, problem.portal_demands[i], 1e-12 * tol) << "portal " << i;
  }
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_LE(solution.idc_loads[j], caps[j] + 1e-12 * tol) << "IDC " << j;
  }
  if (problem.peak_shadow_per_mwh == 0.0 && n * c < kVertexSplitVars) {
    EXPECT_LE(nonzeros, n + c - 1);
  } else if (total > 0.0) {
    // Product form: lambda_ij = L_i load_j / L.
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(solution.allocation.at(i, j),
                    problem.portal_demands[i] * solution.idc_loads[j] / total,
                    1e-12 * tol);
      }
    }
  }
}

TEST(ReferenceGreedy, MatchesSimplexOnSeededShapes) {
  Rng rng(46);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 7}, {6, 1}, {2, 2}, {3, 5}, {5, 3}, {8, 20}, {12, 41}};
  std::size_t checked = 0;
  for (int round = 0; round < 40; ++round) {
    for (const auto& [n, c] : shapes) {
      const double fill = rng.uniform(0.05, 0.95);
      const auto budgets = static_cast<Budgets>(rng.uniform_int(0, 3));
      const auto problem = random_problem(rng, n, c, fill, budgets, false);
      if (near_feasibility_boundary(problem)) continue;
      SCOPED_TRACE(testing::Message() << n << "x" << c << " round " << round);
      expect_matches_oracle(problem);
      ++checked;
    }
  }
  EXPECT_GT(checked, 300u);
}

TEST(ReferenceGreedy, MatchesSimplexOnRandomShapes) {
  Rng rng(35);
  for (int k = 0; k < 120; ++k) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 41));
    const auto problem = random_problem(
        rng, n, c, rng.uniform(0.05, 0.95),
        static_cast<Budgets>(rng.uniform_int(0, 3)), rng.uniform() < 0.3);
    if (near_feasibility_boundary(problem)) continue;
    SCOPED_TRACE(testing::Message() << n << "x" << c << " draw " << k);
    expect_matches_oracle(problem);
  }
}

TEST(ReferenceGreedy, TiedUnitCostsMatchSimplexPerTieClass) {
  Rng rng(7);
  for (int k = 0; k < 40; ++k) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 10));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 20));
    const auto problem = random_problem(rng, n, c, rng.uniform(0.1, 0.9),
                                        Budgets::kNone, true);
    SCOPED_TRACE(testing::Message() << n << "x" << c << " draw " << k);
    expect_matches_oracle(problem);
  }
}

TEST(ReferenceGreedy, TightBudgetsAreRelaxedLikeTheSimplex) {
  Rng rng(11);
  for (int k = 0; k < 30; ++k) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 41));
    const auto problem = random_problem(rng, n, c, rng.uniform(0.4, 0.9),
                                        Budgets::kTight, false);
    SCOPED_TRACE(testing::Message() << n << "x" << c << " draw " << k);
    EXPECT_TRUE(solve_reference(problem).budgets_relaxed);
    expect_matches_oracle(problem);
  }
}

TEST(ReferenceGreedy, DemandAboveCapacityIsInfeasibleLikeTheSimplex) {
  Rng rng(13);
  for (int k = 0; k < 20; ++k) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 41));
    const auto problem = random_problem(
        rng, n, c, rng.uniform(1.01, 2.0),
        static_cast<Budgets>(rng.uniform_int(0, 3)), false);
    SCOPED_TRACE(testing::Message() << n << "x" << c << " draw " << k);
    EXPECT_FALSE(solve_reference(problem).feasible);
    expect_matches_oracle(problem);
  }
}

TEST(ReferenceGreedy, ZeroDemandIsFeasibleAndEmpty) {
  Rng rng(17);
  for (const auto budgets : {Budgets::kNone, Budgets::kTight}) {
    auto problem = random_problem(rng, 5, 9, 0.5, budgets, false);
    std::fill(problem.portal_demands.begin(), problem.portal_demands.end(),
              0.0);
    const auto solution = solve_reference(problem);
    ASSERT_TRUE(solution.feasible);
    EXPECT_FALSE(solution.budgets_relaxed);
    for (double load : solution.idc_loads) EXPECT_EQ(load, 0.0);
    expect_matches_oracle(problem);
  }
}

TEST(ReferenceGreedy, ZeroDemandPortalsGetEmptyRows) {
  Rng rng(19);
  auto problem = random_problem(rng, 6, 12, 0.6, Budgets::kNone, false);
  for (std::size_t i = 0; i < 12; i += 3) problem.portal_demands[i] = 0.0;
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  for (std::size_t i = 0; i < 12; i += 3) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(solution.allocation.at(i, j), 0.0);
    }
  }
  expect_matches_oracle(problem);
}

TEST(ReferenceGreedy, PeakedPathMatchesSegmentLp) {
  Rng rng(29);
  for (int k = 0; k < 80; ++k) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 41));
    auto problem = random_problem(
        rng, n, c, rng.uniform(0.05, 0.95),
        static_cast<Budgets>(rng.uniform_int(0, 3)), false);
    problem.peak_shadow_per_mwh = rng.uniform(1.0, 200.0);
    // Running cycle peaks anywhere from no headroom to full capacity;
    // an empty vector means no headroom at any IDC.
    if (rng.uniform() < 0.8) {
      for (const auto& idc : problem.idcs) {
        problem.cycle_peak_w.push_back(
            rng.uniform() < 0.2
                ? 0.0
                : rng.uniform(0.0, 1.2) *
                      idc.power
                          .idc_power(idc.max_capacity(), idc.max_servers)
                          .value());
      }
    }
    if (near_feasibility_boundary(problem)) continue;
    SCOPED_TRACE(testing::Message() << n << "x" << c << " draw " << k);
    expect_matches_oracle(problem);
  }
}

TEST(ReferenceGreedy, FleetScaleKeepsTheProductFormSplit) {
  // 41 x 100 = 4100 lambda_ij: past the vertex-split gate.
  Rng rng(31);
  const auto problem =
      random_problem(rng, 41, 100, 0.6, Budgets::kMixed, false);
  ASSERT_FALSE(near_feasibility_boundary(problem));
  expect_matches_oracle(problem);
}

}  // namespace
}  // namespace gridctl::control
