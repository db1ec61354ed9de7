#include "solvers/qp_admm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace gridctl::solvers {

using linalg::Matrix;
using linalg::Vector;

void QpProblem::validate() const {
  const std::size_t n = num_vars();
  const std::size_t m = num_constraints();
  require(p.rows() == n && p.cols() == n, "QpProblem: P must be n x n");
  if (m > 0) {
    require(a.rows() == m && a.cols() == n, "QpProblem: A must be m x n");
  }
  require(upper.size() == m, "QpProblem: bound size mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    require(lower[i] <= upper[i], "QpProblem: lower > upper");
  }
}

double QpProblem::objective(const Vector& x) const {
  return 0.5 * linalg::quadratic_form(p, x) + linalg::dot(q, x);
}

namespace {

// Worst violation of lower <= ax <= upper (0 when feasible).
double worst_violation(const Vector& ax, const Vector& lower,
                       const Vector& upper) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    if (std::isfinite(lower[i])) worst = std::max(worst, lower[i] - ax[i]);
    if (std::isfinite(upper[i])) worst = std::max(worst, ax[i] - upper[i]);
  }
  return worst;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  const std::size_t count = a.rows() * a.cols();
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (count == 0 ||
          std::memcmp(a.data(), b.data(), count * sizeof(double)) == 0);
}

}  // namespace

double QpProblem::max_violation(const Vector& x) const {
  if (num_constraints() == 0) return 0.0;
  return worst_violation(a * x, lower, upper);
}

void AdmmSolver::ensure_factor(const QpProblem& problem, double sigma) {
  if (kkt_.has_value() && std::memcmp(&sigma, &sigma_, sizeof sigma) == 0 &&
      same_bits(rho_next_, rho_) && same_bits(problem.p, p_) &&
      same_bits(problem.a, a_)) {
    return;
  }
  kkt_.reset();  // a refactorization that throws leaves no stale factor
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_constraints();
  rho_ = rho_next_;
  rho_inv_.resize(m);
  for (std::size_t i = 0; i < m; ++i) rho_inv_[i] = 1.0 / rho_[i];

  // KKT matrix [[P + sigma I, Aᵀ], [A, -diag(1/rho)]].
  Matrix kkt(n + m, n + m);
  kkt.set_block(0, 0, problem.p);
  for (std::size_t i = 0; i < n; ++i) kkt(i, i) += sigma;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      kkt(j, n + i) = problem.a(i, j);
      kkt(n + i, j) = problem.a(i, j);
    }
    kkt(n + i, n + i) = -rho_inv_[i];
  }
  kkt_.emplace(kkt);
  p_ = problem.p;
  a_ = problem.a;
  sigma_ = sigma;
  ++factorizations_;
}

AdmmSolver::Residuals AdmmSolver::residuals(const QpProblem& prob,
                                            const AdmmOptions& opt) {
  const std::size_t n = prob.num_vars();
  const std::size_t m = prob.num_constraints();
  const Vector& x = result_.x;
  const Vector& y = result_.y;
  if (m > 0) {
    linalg::multiply_into(prob.a, x, ax_);
  } else {
    ax_.clear();
  }
  linalg::multiply_into(prob.p, x, px_);
  // Aᵀy by rows of A: entry j still sums A(0,j)·y0 + A(1,j)·y1 + … from
  // zero, in the order the dot product with a transposed copy would.
  aty_.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = prob.a.data() + i * n;
    const double yi = y[i];
    for (std::size_t j = 0; j < n; ++j) aty_[j] += arow[j] * yi;
  }

  Residuals res;
  for (std::size_t i = 0; i < m; ++i) {
    res.primal = std::max(res.primal, std::abs(ax_[i] - z_[i]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    res.dual = std::max(res.dual, std::abs(px_[i] + (prob.q[i] + aty_[i])));
  }
  const double scale_primal =
      std::max(linalg::norm_inf(ax_), linalg::norm_inf(z_));
  const double scale_dual = std::max({linalg::norm_inf(px_),
                                      linalg::norm_inf(aty_),
                                      linalg::norm_inf(prob.q)});
  res.eps_primal = opt.eps_abs + opt.eps_rel * scale_primal;
  res.eps_dual = opt.eps_abs + opt.eps_rel * scale_dual;
  return res;
}

const QpResult& AdmmSolver::solve(const QpProblem& problem,
                                  const AdmmOptions& options,
                                  const Vector& warm_x, const Vector& warm_y) {
  problem.validate();
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_constraints();

  // Per-row step sizes: equality rows get a much larger rho (OSQP's
  // standard heuristic) so they are enforced tightly.
  rho_next_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const bool is_eq = problem.lower[i] == problem.upper[i];
    rho_next_[i] = is_eq ? options.rho * options.rho_eq_scale : options.rho;
  }
  ensure_factor(problem, options.sigma);
  const linalg::Ldlt& kkt = *kkt_;

  QpResult& result = result_;
  result.status = QpStatus::kMaxIterations;
  result.iterations = 0;
  result.primal_residual = 0.0;
  result.dual_residual = 0.0;
  Vector& x = result.x;
  Vector& y = result.y;
  if (warm_x.size() == n) {
    x = warm_x;
  } else {
    x.assign(n, 0.0);
  }
  if (warm_y.size() == m) {
    y = warm_y;
  } else {
    y.assign(m, 0.0);
  }
  if (m > 0) {
    linalg::multiply_into(problem.a, x, z_);
  } else {
    z_.clear();
  }
  for (std::size_t i = 0; i < m; ++i) {
    z_[i] = std::clamp(z_[i], problem.lower[i], problem.upper[i]);
  }

  const double alpha = options.alpha;
  rhs_.resize(n + m);
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    // rhs = [sigma x - q; z - y/rho]; the solve overwrites it with
    // [x_tilde; nu].
    for (std::size_t i = 0; i < n; ++i) rhs_[i] = options.sigma * x[i] - problem.q[i];
    for (std::size_t i = 0; i < m; ++i) rhs_[n + i] = z_[i] - rho_inv_[i] * y[i];
    kkt.solve_in_place(rhs_);

    // Over-relaxed updates, in place. nu (the KKT dual block) gives
    // z_tilde = z + (nu - y)/rho.
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = alpha * rhs_[i] + (1.0 - alpha) * x[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double z_tilde = z_[i] + rho_inv_[i] * (rhs_[n + i] - y[i]);
      const double z_relaxed = alpha * z_tilde + (1.0 - alpha) * z_[i];
      const double z_next = std::clamp(z_relaxed + rho_inv_[i] * y[i],
                                       problem.lower[i], problem.upper[i]);
      y[i] = y[i] + rho_[i] * (z_relaxed - z_next);
      z_[i] = z_next;
    }

    if (iter % options.check_interval == 0 || iter == options.max_iterations) {
      const Residuals res = residuals(problem, options);
      result.iterations = iter;
      result.primal_residual = res.primal;
      result.dual_residual = res.dual;
      if (res.primal <= res.eps_primal && res.dual <= res.eps_dual) {
        result.status = QpStatus::kOptimal;
        break;
      }
    }
  }

  // Primal infeasibility heuristic: residuals stalled far from feasible.
  if (result.status != QpStatus::kOptimal && m > 0) {
    double bound_scale = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (std::isfinite(problem.upper[i])) {
        bound_scale = std::max(bound_scale, std::abs(problem.upper[i]));
      }
      if (std::isfinite(problem.lower[i])) {
        bound_scale = std::max(bound_scale, std::abs(problem.lower[i]));
      }
    }
    linalg::multiply_into(problem.a, x, ax_);
    if (worst_violation(ax_, problem.lower, problem.upper) >
        1e-3 * bound_scale) {
      result.status = QpStatus::kInfeasible;
    }
  }

  // ½xᵀPx + qᵀx, summed as QpProblem::objective does.
  linalg::multiply_into(problem.p, x, px_);
  result.objective = 0.5 * linalg::dot(x, px_) + linalg::dot(problem.q, x);
  return result;
}

QpResult solve_qp_admm(const QpProblem& problem, const AdmmOptions& options,
                       const Vector& warm_x, const Vector& warm_y) {
  AdmmSolver solver;
  return solver.solve(problem, options, warm_x, warm_y);
}

}  // namespace gridctl::solvers
