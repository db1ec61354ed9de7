// The reusable AdmmSolver against the one-shot solve_qp_admm: through
// a sequence of problems, one solver object must produce bit for bit
// what a fresh solve produces, while refactoring its cached KKT matrix
// exactly when P, A, σ or the per-row ρ pattern changed.
#include <gtest/gtest.h>

#include "solvers/qp_admm.hpp"
#include "util/random.hpp"

namespace gridctl::solvers {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr std::size_t kVars = 5;
constexpr std::size_t kRows = 4;

QpProblem base_problem(Rng& rng) {
  QpProblem qp;
  Matrix g(kVars, kVars);
  for (std::size_t i = 0; i < kVars; ++i) {
    for (std::size_t j = 0; j < kVars; ++j) g(i, j) = rng.normal();
  }
  qp.p = g.transpose() * g;
  for (std::size_t i = 0; i < kVars; ++i) qp.p(i, i) += 0.5;
  qp.q.resize(kVars);
  for (double& v : qp.q) v = rng.normal();
  qp.a = Matrix(kRows, kVars);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kVars; ++j) qp.a(i, j) = rng.normal();
  }
  // Row 0 is an equality; the rest are two-sided boxes, one open above.
  qp.lower = {0.5, -1.0, -2.0, -0.5};
  qp.upper = {0.5, 1.0, kInfinity, 0.5};
  return qp;
}

void expect_identical(const QpResult& got, const QpResult& want,
                      const char* step) {
  EXPECT_EQ(got.status, want.status) << step;
  EXPECT_EQ(got.iterations, want.iterations) << step;
  ASSERT_EQ(got.x.size(), want.x.size()) << step;
  ASSERT_EQ(got.y.size(), want.y.size()) << step;
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_EQ(got.x[i], want.x[i]) << step << ", x[" << i << "]";
  }
  for (std::size_t i = 0; i < got.y.size(); ++i) {
    EXPECT_EQ(got.y[i], want.y[i]) << step << ", y[" << i << "]";
  }
  EXPECT_EQ(got.objective, want.objective) << step;
  EXPECT_EQ(got.primal_residual, want.primal_residual) << step;
  EXPECT_EQ(got.dual_residual, want.dual_residual) << step;
}

TEST(AdmmSolver, CachedFactorMatchesOneShotSolvesBitForBit) {
  Rng rng(42);
  QpProblem qp = base_problem(rng);
  AdmmOptions options;
  AdmmSolver solver;
  Vector warm_x, warm_y;

  // Solve the current problem both ways, compare, and pin the number of
  // factorizations the cached solver has done so far.
  const auto step = [&](const char* name, std::size_t factorizations) {
    const QpResult want = solve_qp_admm(qp, options, warm_x, warm_y);
    const QpResult& got = solver.solve(qp, options, warm_x, warm_y);
    expect_identical(got, want, name);
    EXPECT_EQ(solver.factorizations(), factorizations) << name;
    EXPECT_EQ(got.status, QpStatus::kOptimal) << name;
    warm_x = got.x;
    warm_y = got.y;
  };

  step("first solve", 1);

  // q and the bounds move (the equality row stays an equality): reuse.
  for (double& v : qp.q) v += 0.25 * rng.normal();
  qp.lower = {0.25, -0.75, -1.5, -0.25};
  qp.upper = {0.25, 1.25, kInfinity, 0.75};
  step("q and bounds changed", 1);

  // An equal problem in a different object: the solver compares the
  // inputs, not their identity.
  const QpProblem copy = qp;
  qp = copy;
  step("same problem, new object", 1);

  qp.p(1, 2) += 0.125;
  qp.p(2, 1) += 0.125;
  step("P changed", 2);

  qp.a(3, 0) -= 0.5;
  step("A changed", 3);

  options.sigma = 1e-5;
  step("sigma changed", 4);

  // Row 1 becomes an equality: its ρ jumps by rho_eq_scale.
  qp.lower[1] = 0.5;
  qp.upper[1] = 0.5;
  step("row 1 flipped to equality", 5);

  for (double& v : qp.q) v -= 0.125;
  step("q changed after the flip", 5);

  // And back to an inequality.
  qp.lower[1] = -1.0;
  qp.upper[1] = 1.0;
  step("row 1 flipped back", 6);

  // A cold start on an unchanged KKT matrix reuses the factor too.
  warm_x.clear();
  warm_y.clear();
  step("cold start", 6);
}

TEST(AdmmSolver, ResultOfACappedSolveMatchesOneShot) {
  // Iteration-capped and infeasible solves go through the same cached
  // path and report the same status, iterate and residuals.
  Rng rng(7);
  QpProblem qp = base_problem(rng);
  AdmmOptions capped;
  capped.max_iterations = 7;
  AdmmSolver solver;
  expect_identical(solver.solve(qp, capped), solve_qp_admm(qp, capped),
                   "capped");
  EXPECT_NE(solver.solve(qp, capped).status, QpStatus::kOptimal);

  QpProblem infeasible;
  infeasible.p = Matrix{{2}};
  infeasible.q = {0};
  infeasible.a = Matrix{{1}, {1}};
  infeasible.lower = {2, -kInfinity};
  infeasible.upper = {kInfinity, 1};
  AdmmOptions options;
  options.max_iterations = 3000;
  const QpResult& got = solver.solve(infeasible, options);
  EXPECT_EQ(got.status, QpStatus::kInfeasible);
  expect_identical(got, solve_qp_admm(infeasible, options), "infeasible");
  EXPECT_EQ(solver.factorizations(), 2u);
}

}  // namespace
}  // namespace gridctl::solvers
