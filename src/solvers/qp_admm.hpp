// OSQP-style ADMM solver for convex QPs (Stellato et al., 2020).
//
// Splitting:  min ½xᵀPx + qᵀx + I_{l<=z<=u}(z)  s.t.  Ax = z.
// Each iteration solves one quasi-definite KKT system and projects onto
// the box. Robust on the MPC problems gridctl builds: it needs no
// feasible starting point and detects primal infeasibility via the
// standard certificate test.
//
// The KKT matrix [[P + σI, Aᵀ], [A, −diag(1/ρ)]] depends only on P, A,
// σ and the per-row ρ (equality rows take a larger ρ), never on q or
// the bounds. AdmmSolver factors it once per matrix and reuses the
// factor across solves; a receding-horizon controller, whose P and A
// stay fixed from period to period while q and the bounds move, pays
// for one factorization and then iterates allocation-free.
#pragma once

#include <optional>

#include "linalg/cholesky.hpp"
#include "solvers/qp.hpp"

namespace gridctl::solvers {

struct AdmmOptions {
  double rho = 0.1;            // base step size for inequality rows
  double rho_eq_scale = 1e3;   // equality rows use rho * this
  double sigma = 1e-6;         // primal regularization
  double alpha = 1.6;          // over-relaxation
  double eps_abs = 1e-8;
  double eps_rel = 1e-8;
  std::size_t max_iterations = 20000;
  std::size_t check_interval = 10;  // residual check cadence
};

class AdmmSolver {
 public:
  // Solve; `warm_x` / `warm_y` seed the iteration when they have the
  // problem's sizes. The cached KKT factor is reused when P, A, σ and
  // the per-row ρ all equal (bitwise) those it was built from, and
  // rebuilt otherwise. Returns a reference to an internally owned
  // result, valid until the next solve. Allocation-free once the
  // factor and the workspace fit the problem.
  const QpResult& solve(const QpProblem& problem,
                        const AdmmOptions& options = {},
                        const linalg::Vector& warm_x = {},
                        const linalg::Vector& warm_y = {});

  // KKT factorizations performed so far.
  std::size_t factorizations() const { return factorizations_; }

 private:
  struct Residuals {
    double primal = 0.0;
    double dual = 0.0;
    double eps_primal = 0.0;
    double eps_dual = 0.0;
  };

  // Refactor unless the cached factor was built from this P, A, σ and
  // the per-row ρ in rho_next_.
  void ensure_factor(const QpProblem& problem, double sigma);
  // Residuals at the current iterate; fills ax_, px_ and aty_.
  Residuals residuals(const QpProblem& problem, const AdmmOptions& options);

  // The factored KKT matrix and the inputs it was built from.
  std::optional<linalg::Ldlt> kkt_;
  linalg::Matrix p_, a_;
  double sigma_ = 0.0;
  linalg::Vector rho_, rho_inv_;
  std::size_t factorizations_ = 0;

  // Workspace; the primal and dual iterates live in result_.x / .y.
  linalg::Vector rho_next_;
  linalg::Vector z_, rhs_;
  linalg::Vector ax_, px_, aty_;
  QpResult result_;
};

// One-shot solve through a fresh AdmmSolver.
QpResult solve_qp_admm(const QpProblem& problem,
                       const AdmmOptions& options = {},
                       const linalg::Vector& warm_x = {},
                       const linalg::Vector& warm_y = {});

}  // namespace gridctl::solvers
