// CondensedQpSolver vs the dense backends on the same transport MPC
// problems. The condensed solver runs qp_admm's iteration through the
// problem structure (adapting ρ on top), so converged solutions must
// agree with the dense ADMM (and the exact active-set) within solver
// tolerance, and failure semantics (iteration caps, infeasibility) must
// match.
#include "solvers/qp_condensed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <limits>
#include <vector>

#include "control/constraints.hpp"
#include "control/prediction.hpp"
#include "solvers/lsq.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace gridctl::solvers {
namespace {

using control::InputConstraints;
using control::MpcHorizons;
using control::MpcPlant;
using control::StackedPrediction;
using control::TransportConstraints;
using linalg::Matrix;
using linalg::Vector;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TransportCase {
  std::size_t portals = 2;
  std::size_t idcs = 3;
  std::size_t prediction = 4;
  std::size_t control = 2;
  Vector slope, y0, q;
  double r = 0.1;
  Vector u_prev, demand, cap_lower, cap_upper;
  std::vector<Vector> references;
  bool nonnegative = true;
};

// Deterministic pseudo-random fill in [lo, hi].
double jitter(std::size_t k, double lo, double hi) {
  const double u = 0.5 + 0.5 * std::sin(2.7 * static_cast<double>(k + 1));
  return lo + (hi - lo) * u;
}

TransportCase make_case(std::size_t portals, std::size_t idcs,
                        std::size_t prediction, std::size_t control) {
  TransportCase c;
  c.portals = portals;
  c.idcs = idcs;
  c.prediction = prediction;
  c.control = control;
  c.slope.resize(idcs);
  c.y0.resize(idcs);
  c.q.assign(idcs, 1.0);
  for (std::size_t j = 0; j < idcs; ++j) {
    c.slope[j] = jitter(j, 0.2, 0.6);
    c.y0[j] = jitter(j + 7, 0.01, 0.05);
  }
  c.u_prev.resize(portals * idcs);
  for (std::size_t k = 0; k < c.u_prev.size(); ++k) {
    c.u_prev[k] = jitter(k + 13, 0.0, 2.0);
  }
  c.demand.resize(portals);
  for (std::size_t i = 0; i < portals; ++i) {
    c.demand[i] = jitter(i + 31, 1.0, 4.0) * static_cast<double>(idcs);
  }
  c.cap_lower.assign(idcs, 0.0);
  c.cap_upper.assign(idcs, 0.0);
  double total = 0.0;
  for (double d : c.demand) total += d;
  for (std::size_t j = 0; j < idcs; ++j) {
    // Jointly feasible caps with slack.
    c.cap_upper[j] = 2.0 * total / static_cast<double>(idcs);
  }
  c.references.resize(prediction);
  for (std::size_t s = 0; s < prediction; ++s) {
    c.references[s].resize(idcs);
    for (std::size_t j = 0; j < idcs; ++j) {
      c.references[s][j] =
          c.slope[j] * total / static_cast<double>(idcs) + c.y0[j] +
          0.1 * std::sin(static_cast<double>(s + j));
    }
  }
  return c;
}

// Dense reference solve through the exact same pipeline the MPC's dense
// path uses: stacked prediction + stacked constraints + the LSQ entry.
ConstrainedLsqResult solve_dense(const TransportCase& c, LsqBackend backend,
                                 std::size_t max_iterations = 0) {
  const std::size_t n = c.idcs;
  const std::size_t m = c.portals * n;
  MpcPlant plant;
  plant.c_u = Matrix(n, m);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < c.portals; ++i) {
      plant.c_u(j, i * n + j) = c.slope[j];
    }
  }
  plant.y0 = c.y0;
  MpcHorizons horizons{c.prediction, c.control};
  const StackedPrediction prediction =
      control::build_prediction(plant, horizons, {}, c.u_prev);

  ConstrainedLsqProblem lsq;
  lsq.f = prediction.theta;
  lsq.g.assign(n * c.prediction, 0.0);
  lsq.w.assign(n * c.prediction, 0.0);
  for (std::size_t s = 0; s < c.prediction; ++s) {
    const Vector& ref = s < c.references.size() ? c.references[s]
                                                : c.references.back();
    for (std::size_t j = 0; j < n; ++j) {
      lsq.g[s * n + j] = ref[j] - prediction.constant[s * n + j];
      lsq.w[s * n + j] = c.q[j];
    }
  }
  lsq.r.assign(m * c.control, c.r);

  TransportConstraints transport;
  transport.demand = c.demand;
  transport.cap_lower = c.cap_lower;
  transport.cap_upper = c.cap_upper;
  transport.nonnegative = c.nonnegative;
  const InputConstraints per_step = transport.materialize();
  const auto stacked =
      control::stack_constraints(per_step, c.u_prev, c.control);
  lsq.a_eq = stacked.a_eq;
  lsq.b_eq = stacked.b_eq;
  lsq.a_in = stacked.a_in;
  lsq.lower = stacked.lower;
  lsq.upper = stacked.upper;
  return solve_constrained_lsq(lsq, LsqSolveOptions{backend, max_iterations});
}

CondensedQpSolver make_solver(const TransportCase& c) {
  CondensedQpSolver solver;
  TransportQpShape shape;
  shape.portals = c.portals;
  shape.idcs = c.idcs;
  shape.prediction = c.prediction;
  shape.control = c.control;
  shape.nonnegative = c.nonnegative;
  TransportQpCost cost;
  cost.q = c.q;
  cost.slope = c.slope;
  cost.y0 = c.y0;
  cost.r = c.r;
  AdmmOptions admm;
  admm.eps_abs = 1e-6;
  admm.eps_rel = 1e-6;
  admm.check_interval = 1;
  solver.configure(shape, cost, admm);
  return solver;
}

void expect_agrees_with_dense(const TransportCase& c, double x_tol,
                              double obj_rel_tol) {
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& condensed =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {});
  ASSERT_EQ(condensed.status, QpStatus::kOptimal);

  const auto dense = solve_dense(c, LsqBackend::kAdmm);
  ASSERT_EQ(dense.status, QpStatus::kOptimal);
  ASSERT_EQ(condensed.delta_u.size(), dense.x.size());
  for (std::size_t k = 0; k < dense.x.size(); ++k) {
    EXPECT_NEAR(condensed.delta_u[k], dense.x[k], x_tol) << "entry " << k;
  }
  EXPECT_NEAR(condensed.objective, dense.objective,
              obj_rel_tol * std::max(1.0, std::abs(dense.objective)));
}

TEST(CondensedQp, MatchesDenseAdmmSmall) {
  expect_agrees_with_dense(make_case(2, 3, 4, 2), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesDenseAdmmSinglePortal) {
  expect_agrees_with_dense(make_case(1, 4, 5, 3), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesDenseAdmmEqualHorizons) {
  expect_agrees_with_dense(make_case(3, 2, 3, 3), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesDenseAdmmWider) {
  expect_agrees_with_dense(make_case(4, 5, 6, 2), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesActiveSetObjective) {
  const TransportCase c = make_case(2, 3, 4, 2);
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& condensed =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {});
  ASSERT_EQ(condensed.status, QpStatus::kOptimal);
  const auto exact = solve_dense(c, LsqBackend::kActiveSet);
  ASSERT_EQ(exact.status, QpStatus::kOptimal);
  EXPECT_NEAR(condensed.objective, exact.objective,
              1e-4 * std::max(1.0, std::abs(exact.objective)));
  for (std::size_t k = 0; k < exact.x.size(); ++k) {
    EXPECT_NEAR(condensed.delta_u[k], exact.x[k], 2e-3) << "entry " << k;
  }
}

TEST(CondensedQp, BindingCapsMatchDense) {
  TransportCase c = make_case(2, 3, 4, 2);
  // Tighten one cap so it binds at the optimum: the cheapest IDC (by
  // tracking pull) is capped well below its unconstrained share.
  double total = 0.0;
  for (double d : c.demand) total += d;
  c.cap_upper[0] = 0.15 * total;
  expect_agrees_with_dense(c, 2e-3, 1e-4);

  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(res.status, QpStatus::kOptimal);
  // The applied first step respects the cap.
  double load0 = 0.0;
  for (std::size_t i = 0; i < c.portals; ++i) {
    load0 += c.u_prev[i * c.idcs] + res.delta_u[i * c.idcs];
  }
  EXPECT_LE(load0, c.cap_upper[0] + 1e-4);
}

TEST(CondensedQp, HoldsShortReferenceTrajectory) {
  TransportCase c = make_case(2, 3, 5, 2);
  c.references.resize(1);  // held across the horizon
  expect_agrees_with_dense(c, 2e-3, 1e-4);
}

TEST(CondensedQp, InfeasibleCapsReportedLikeDense) {
  TransportCase c = make_case(2, 3, 4, 2);
  double total = 0.0;
  for (double d : c.demand) total += d;
  for (std::size_t j = 0; j < c.idcs; ++j) {
    c.cap_upper[j] = 0.2 * total / static_cast<double>(c.idcs);
  }
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  EXPECT_EQ(res.status, QpStatus::kInfeasible);
  const auto dense = solve_dense(c, LsqBackend::kAdmm);
  EXPECT_EQ(dense.status, QpStatus::kInfeasible);
}

TEST(CondensedQp, IterationCapFailsLikeDense) {
  // A starvation-level cap cannot converge. Cold-started from ΔU = 0 the
  // iterate still violates conservation (this u_prev does not sum to the
  // demand), so the mirrored stall heuristic reports kInfeasible — the
  // exact status the dense ADMM returns on the same problem and cap.
  const TransportCase c = make_case(2, 3, 4, 2);
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {}, /*max_iterations=*/2);
  EXPECT_NE(res.status, QpStatus::kOptimal);
  EXPECT_LE(res.iterations, 2u);
  const auto dense = solve_dense(c, LsqBackend::kAdmm, /*max_iterations=*/2);
  EXPECT_EQ(res.status, dense.status);
}

TEST(CondensedQp, IterationCapFromFeasiblePointReturnsMaxIterations) {
  // Same starvation cap, but u_prev satisfies every constraint: the
  // stall heuristic has nothing to flag and the honest kMaxIterations
  // status comes back.
  TransportCase c = make_case(2, 3, 4, 2);
  for (std::size_t i = 0; i < c.portals; ++i) {
    for (std::size_t j = 0; j < c.idcs; ++j) {
      c.u_prev[i * c.idcs + j] = c.demand[i] / static_cast<double>(c.idcs);
    }
  }
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {}, /*max_iterations=*/2);
  EXPECT_EQ(res.status, QpStatus::kMaxIterations);
  EXPECT_LE(res.iterations, 2u);
}

TEST(CondensedQp, WarmStartConvergesFaster) {
  const TransportCase c = make_case(3, 4, 5, 3);
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& cold = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(cold.status, QpStatus::kOptimal);
  const std::size_t cold_iterations = cold.iterations;
  const Vector warm_x = cold.delta_u;
  const Vector warm_y = cold.y;
  const CondensedQpResult& warm =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, warm_x, warm_y);
  ASSERT_EQ(warm.status, QpStatus::kOptimal);
  // Restarting at the optimum must terminate (nearly) immediately.
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LT(warm.iterations, cold_iterations);
}

TEST(CondensedQp, ReportsRhoLadderMoves) {
  // A cold solve against a binding cap moves off the configured ρ; the
  // result names the rung it ended on. A warm restart at the optimum
  // converges before the first balancing step and stays home.
  TransportCase c = make_case(2, 3, 4, 2);
  double total = 0.0;
  for (double d : c.demand) total += d;
  c.cap_upper[0] = 0.15 * total;
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& cold = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(cold.status, QpStatus::kOptimal);
  EXPECT_GT(cold.rho_updates, 0u);
  const AdmmOptions defaults;
  EXPECT_NE(cold.rho, defaults.rho);
  const double rungs = std::log(cold.rho / defaults.rho) /
                       std::log(kRhoLadderStep);
  EXPECT_NEAR(rungs, std::round(rungs), 1e-9);
  const Vector warm_x = cold.delta_u;
  const Vector warm_y = cold.y;
  const CondensedQpResult& warm = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, warm_x,
      warm_y);
  ASSERT_EQ(warm.status, QpStatus::kOptimal);
  EXPECT_EQ(warm.rho_updates, 0u);
  EXPECT_EQ(warm.rho, defaults.rho);
}

TEST(CondensedQp, UnboundedCapsWork) {
  TransportCase c = make_case(2, 3, 4, 2);
  c.cap_upper.assign(c.idcs, kInf);
  expect_agrees_with_dense(c, 2e-3, 1e-4);
}

TEST(CondensedQp, ZeroMovePenaltyWorks) {
  TransportCase c = make_case(2, 3, 4, 2);
  c.r = 0.0;
  expect_agrees_with_dense(c, 5e-3, 1e-4);
}

// Dense row-major matrix in long double, for the reference below.
using Dense = std::vector<std::vector<long double>>;

// Solves a·x = b for SPD `a` (Cholesky, long double).
std::vector<long double> spd_solve(Dense a, std::vector<long double> b) {
  const std::size_t n = a.size();
  for (std::size_t k = 0; k < n; ++k) {
    a[k][k] = std::sqrt(a[k][k]);
    for (std::size_t i = k + 1; i < n; ++i) a[i][k] /= a[k][k];
    for (std::size_t j = k + 1; j < n; ++j) {
      for (std::size_t i = j; i < n; ++i) a[i][j] -= a[i][k] * a[j][k];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) b[i] -= a[i][k] * b[k];
    b[i] /= a[i][i];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t k = i + 1; k < n; ++k) b[i] -= a[k][i] * b[k];
    b[i] /= a[i][i];
  }
  return b;
}

// The capacitance K = D̃⁻¹ + Wᵀ B⁻¹ W assembled densely from its
// definition, in long double: B = 2r(T ⊗ I_CN) + shift·I + ρ_eq(I_β2 ⊗
// I_C ⊗ 1_N 1_Nᵀ) is the x-update matrix without its column-sum part,
// W = I_β2 ⊗ 1_C ⊗ I_N the column-sum map and D̃ = diag(ρ + 2ĉ). Returns
// K⁻¹c for a β2·N vector c in the solver's t-major layout.
Vector explicit_kinv_c(const TransportQpShape& shape,
                       const TransportQpCost& cost, const AdmmOptions& options,
                       double rho, const Vector& c) {
  const std::size_t cp = shape.portals, nd = shape.idcs;
  const std::size_t b1 = shape.prediction, b2 = shape.control;
  const std::size_t m = cp * nd, n = b2 * m, bn = b2 * nd;
  const long double shift = options.sigma + (shape.nonnegative ? rho : 0.0);
  const long double rho_eq =
      static_cast<long double>(rho) * options.rho_eq_scale;
  Dense b(n, std::vector<long double>(n, 0.0L));
  for (std::size_t t = 0; t < b2; ++t) {
    const long double t_diag = t + 1 < b2 ? 2.0L : 1.0L;
    for (std::size_t i = 0; i < cp; ++i) {
      for (std::size_t j = 0; j < nd; ++j) {
        const std::size_t row = t * m + i * nd + j;
        b[row][row] += 2.0L * cost.r * t_diag + shift;
        if (t + 1 < b2) {
          b[row][row + m] -= 2.0L * cost.r;
          b[row + m][row] -= 2.0L * cost.r;
        }
        for (std::size_t jp = 0; jp < nd; ++jp) {
          b[row][t * m + i * nd + jp] += rho_eq;
        }
      }
    }
  }
  // K = D̃⁻¹ + Wᵀ B⁻¹ W, one column of B⁻¹W per (t, j).
  Dense k(bn, std::vector<long double>(bn, 0.0L));
  for (std::size_t col = 0; col < bn; ++col) {
    const std::size_t t = col / nd, j = col % nd;
    std::vector<long double> w(n, 0.0L);
    for (std::size_t i = 0; i < cp; ++i) w[t * m + i * nd + j] = 1.0L;
    const std::vector<long double> binv_w = spd_solve(b, w);
    for (std::size_t tp = 0; tp < b2; ++tp) {
      for (std::size_t i = 0; i < cp; ++i) {
        for (std::size_t jp = 0; jp < nd; ++jp) {
          k[tp * nd + jp][col] += binv_w[tp * m + i * nd + jp];
        }
      }
    }
    const long double cnt =
        t + 1 < b2 ? 1.0L : static_cast<long double>(b1 - b2 + 1);
    const long double chat = cnt * cost.q[j] * cost.slope[j] * cost.slope[j];
    k[col][col] += 1.0L / (rho + 2.0L * chat);
  }
  const std::vector<long double> x =
      spd_solve(k, std::vector<long double>(c.begin(), c.end()));
  return Vector(x.begin(), x.end());
}

TEST(CondensedQp, NestedWoodburyMatchesExplicitCapacitance) {
  Rng rng(20120612);
  for (int trial = 0; trial < 16; ++trial) {
    TransportQpShape shape;
    shape.portals =
        trial == 1 ? 1 : static_cast<std::size_t>(rng.uniform_int(1, 4));
    shape.idcs = static_cast<std::size_t>(rng.uniform_int(1, 5));
    shape.control =
        trial == 2 ? 1 : static_cast<std::size_t>(rng.uniform_int(1, 4));
    shape.prediction =
        shape.control + static_cast<std::size_t>(rng.uniform_int(0, 3));
    shape.nonnegative = trial != 3 && rng.uniform() < 0.7;
    TransportQpCost cost;
    for (std::size_t j = 0; j < shape.idcs; ++j) {
      cost.q.push_back(rng.uniform(0.0, 3.0));
      cost.slope.push_back(rng.uniform(0.1, 2.0));
      cost.y0.push_back(rng.uniform(0.0, 0.1));
    }
    cost.r = trial == 0 ? 0.0 : rng.uniform(0.0, 5.0);
    AdmmOptions options;
    options.rho = rng.uniform(0.05, 2.0);

    const auto factors = build_condensed_factors(shape, cost, options);
    ASSERT_EQ(factors->rungs.size(), kRhoLadderRungs);
    EXPECT_EQ(factors->rungs[kRhoLadderHome].rho, options.rho);
    const std::size_t bn = shape.control * shape.idcs;
    Vector c(bn), w(bn), scratch(3 * shape.control);
    for (double& v : c) v = rng.uniform(-1.0, 1.0);
    for (std::size_t k = 0; k < kRhoLadderRungs; ++k) {
      const double rho = factors->rungs[k].rho;
      if (k > 0) {
        EXPECT_GT(rho, factors->rungs[k - 1].rho);
      }
      factors->solve_capacitance(k, c.data(), w.data(), scratch.data());
      const Vector ref = explicit_kinv_c(shape, cost, options, rho, c);
      double err = 0.0, scale = 0.0;
      for (std::size_t e = 0; e < bn; ++e) {
        err = std::max(err, std::abs(w[e] - ref[e]));
        scale = std::max(scale, std::abs(ref[e]));
      }
      EXPECT_LE(err, 1e-10 * scale)
          << "trial " << trial << " rung " << k << " C=" << shape.portals
          << " N=" << shape.idcs << " b2=" << shape.control
          << " r=" << cost.r << " nonneg=" << shape.nonnegative;
    }
  }
}

TEST(CondensedQp, RejectsBadShapes) {
  CondensedQpSolver solver;
  TransportQpShape shape;
  shape.portals = 0;
  shape.idcs = 3;
  shape.prediction = 4;
  shape.control = 2;
  TransportQpCost cost;
  cost.q.assign(3, 1.0);
  cost.slope.assign(3, 0.5);
  cost.y0.assign(3, 0.0);
  EXPECT_THROW(solver.configure(shape, cost), InvalidArgument);
  shape.portals = 2;
  shape.control = 5;  // > prediction
  EXPECT_THROW(solver.configure(shape, cost), InvalidArgument);
}

TEST(CondensedQp, SolveBeforeConfigureThrows) {
  CondensedQpSolver solver;
  EXPECT_THROW(solver.solve({}, {}, {}, {}, {{}}, {}, {}), InvalidArgument);
}

}  // namespace
}  // namespace gridctl::solvers
