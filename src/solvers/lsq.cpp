#include "solvers/lsq.hpp"

#include "solvers/qp_active_set.hpp"
#include "util/error.hpp"

namespace gridctl::solvers {

using linalg::Matrix;
using linalg::Vector;

namespace {

// The QP translation, written into `qp` (reusing its storage).
void to_qp_into(const ConstrainedLsqProblem& problem, QpProblem& qp) {
  const std::size_t n = problem.f.cols();
  const std::size_t rows = problem.f.rows();
  require(problem.g.size() == rows, "lsq: g size mismatch");
  require(problem.w.size() == rows, "lsq: w size mismatch");
  require(problem.r.size() == n, "lsq: r size mismatch");

  // P = 2 (Fᵀ W F + R), q = -2 Fᵀ W g. The factor 2 keeps
  // ½xᵀPx + qᵀx equal to the least-squares objective up to the constant
  // gᵀWg, so QP objectives are comparable across backends. Both are
  // accumulated over the rows of F in order, so entry (i, j) of FᵀWF
  // sums F(k,i)·(F(k,j)·w_k) over k = 0, 1, … (skipping F(k,i) = 0) —
  // the sums the blocked GEMM of Fᵀ and W·F forms, without either
  // product matrix.
  qp.p.resize(n, n);
  qp.q.assign(n, 0.0);
  double* p = qp.p.data();
  for (std::size_t k = 0; k < rows; ++k) {
    const double wk = problem.w[k];
    require(wk >= 0.0, "lsq: weights must be non-negative");
    const double wg = wk * problem.g[k];
    const double* frow = problem.f.data() + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double fki = frow[i];
      qp.q[i] += fki * wg;
      if (fki == 0.0) continue;
      double* prow = p + i * n;
      for (std::size_t j = 0; j < n; ++j) prow[j] += fki * (frow[j] * wk);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    require(problem.r[j] >= 0.0, "lsq: regularizers must be non-negative");
    p[j * n + j] += problem.r[j];
  }
  qp.p *= 2.0;
  for (double& qi : qp.q) qi *= -2.0;

  // Stack equality rows (lower == upper) above inequality rows.
  const std::size_t m_eq = problem.a_eq.rows();
  const std::size_t m_in = problem.a_in.rows();
  if (m_eq + m_in == 0) {
    qp.a.resize(0, 0);
    qp.lower.clear();
    qp.upper.clear();
    return;
  }
  qp.a.resize(m_eq + m_in, n);
  qp.lower.resize(m_eq + m_in);
  qp.upper.resize(m_eq + m_in);
  if (m_eq > 0) {
    require(problem.a_eq.cols() == n && problem.b_eq.size() == m_eq,
            "lsq: equality block mismatch");
    qp.a.set_block(0, 0, problem.a_eq);
    for (std::size_t i = 0; i < m_eq; ++i) {
      qp.lower[i] = problem.b_eq[i];
      qp.upper[i] = problem.b_eq[i];
    }
  }
  if (m_in > 0) {
    require(problem.a_in.cols() == n && problem.lower.size() == m_in &&
                problem.upper.size() == m_in,
            "lsq: inequality block mismatch");
    qp.a.set_block(m_eq, 0, problem.a_in);
    for (std::size_t i = 0; i < m_in; ++i) {
      qp.lower[m_eq + i] = problem.lower[i];
      qp.upper[m_eq + i] = problem.upper[i];
    }
  }
}

}  // namespace

QpProblem to_qp(const ConstrainedLsqProblem& problem) {
  QpProblem qp;
  to_qp_into(problem, qp);
  return qp;
}

const ConstrainedLsqResult& ConstrainedLsqSolver::solve(
    const ConstrainedLsqProblem& problem, const LsqSolveOptions& options,
    const Vector& warm_x) {
  to_qp_into(problem, qp_);
  ConstrainedLsqResult& result = result_;
  switch (options.backend) {
    // kCondensed needs the structured problem description the MPC layer
    // holds; through this dense interface it degrades to the equivalent
    // ADMM solve.
    case LsqBackend::kCondensed:
    case LsqBackend::kAdmm: {
      // MPC problems arrive pre-normalized to O(1) magnitudes, so a
      // 1e-6 tolerance is far below any physically meaningful digit and
      // saves a large constant factor per control period.
      AdmmOptions admm;
      admm.eps_abs = 1e-6;
      admm.eps_rel = 1e-6;
      if (options.max_iterations > 0) {
        admm.max_iterations = options.max_iterations;
      }
      const QpResult& solved = admm_.solve(qp_, admm, warm_x);
      result.status = solved.status;
      result.x.assign(solved.x.begin(), solved.x.end());
      result.iterations = solved.iterations;
      break;
    }
    case LsqBackend::kActiveSet: {
      ActiveSetOptions active_set;
      if (options.max_iterations > 0) {
        active_set.max_iterations = options.max_iterations;
      }
      QpResult solved = solve_qp_active_set(qp_, active_set);
      result.status = solved.status;
      result.x = std::move(solved.x);
      result.iterations = solved.iterations;
      break;
    }
  }
  // Report the true least-squares objective.
  linalg::multiply_into(problem.f, result.x, fx_);
  double obj = 0.0;
  for (std::size_t i = 0; i < fx_.size(); ++i) {
    const double residual = fx_[i] - problem.g[i];
    obj += problem.w[i] * residual * residual;
  }
  for (std::size_t j = 0; j < result.x.size(); ++j) {
    obj += problem.r[j] * result.x[j] * result.x[j];
  }
  result.objective = obj;
  return result;
}

ConstrainedLsqResult solve_constrained_lsq(const ConstrainedLsqProblem& problem,
                                           const LsqSolveOptions& options,
                                           const Vector& warm_x) {
  ConstrainedLsqSolver solver;
  return solver.solve(problem, options, warm_x);
}

}  // namespace gridctl::solvers
