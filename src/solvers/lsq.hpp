// Weighted, linearly constrained least squares — the exact shape of the
// paper's transformed MPC problem (eq. 42–45):
//
//   minimize    || F x - g ||²_W  +  || x ||²_R
//   subject to  A_eq x  = b_eq
//               lower <= A_in x <= upper
//
// Mapped onto the QP solvers via P = 2(FᵀWF + R), q = -2 FᵀW g.
#pragma once

#include "solvers/qp_admm.hpp"

namespace gridctl::solvers {

struct ConstrainedLsqProblem {
  linalg::Matrix f;        // residual map (rows x n)
  linalg::Vector g;        // residual target
  linalg::Vector w;        // per-residual weights (diagonal W), size rows
  linalg::Vector r;        // per-variable regularization (diagonal R), size n
  linalg::Matrix a_eq;     // may be empty
  linalg::Vector b_eq;
  linalg::Matrix a_in;     // may be empty
  linalg::Vector lower;    // entries may be -inf
  linalg::Vector upper;    // entries may be +inf
};

// kCondensed selects the structure-exploiting transport solver
// (qp_condensed.hpp) where the problem shape allows it — the MPC layer
// detects the transport structure and routes accordingly. This dense
// entry point cannot express that structure, so solve_constrained_lsq
// treats kCondensed as kAdmm (the same splitting method the condensed
// solver mirrors).
enum class LsqBackend { kAdmm, kActiveSet, kCondensed };

// Solve knobs shared by both backends. `max_iterations == 0` keeps each
// backend's own default; a small forced cap is the fault-injection lever
// the degradation-chain tests use.
struct LsqSolveOptions {
  LsqBackend backend = LsqBackend::kAdmm;
  std::size_t max_iterations = 0;
};

struct ConstrainedLsqResult {
  QpStatus status = QpStatus::kMaxIterations;
  linalg::Vector x;
  double objective = 0.0;       // in the least-squares metric above
  std::size_t iterations = 0;
};

// Builds the equivalent QP (merging equality and inequality blocks into
// one box-constraint matrix) and solves it with a fresh solver.
ConstrainedLsqResult solve_constrained_lsq(
    const ConstrainedLsqProblem& problem, const LsqSolveOptions& options,
    const linalg::Vector& warm_x = {});

inline ConstrainedLsqResult solve_constrained_lsq(
    const ConstrainedLsqProblem& problem,
    LsqBackend backend = LsqBackend::kAdmm,
    const linalg::Vector& warm_x = {}) {
  return solve_constrained_lsq(problem, LsqSolveOptions{backend, 0}, warm_x);
}

// The reusable form of solve_constrained_lsq, for a caller that solves
// a sequence of problems (the MPC, one per control period). It keeps
// the translated QP and an AdmmSolver between solves, so while F, W, R
// and the constraint matrices stay put the ADMM backends reuse the KKT
// factorization and allocate nothing after the first solve. The
// active-set backend solves one-shot.
class ConstrainedLsqSolver {
 public:
  // Returns a reference to an internally owned result, valid until the
  // next solve.
  const ConstrainedLsqResult& solve(const ConstrainedLsqProblem& problem,
                                    const LsqSolveOptions& options,
                                    const linalg::Vector& warm_x = {});

 private:
  QpProblem qp_;
  AdmmSolver admm_;
  ConstrainedLsqResult result_;
  linalg::Vector fx_;  // F x, for the least-squares objective
};

// The QP translation, exposed for tests.
QpProblem to_qp(const ConstrainedLsqProblem& problem);

}  // namespace gridctl::solvers
