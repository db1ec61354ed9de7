// Two-phase primal simplex for dense linear programs.
//
//   minimize    cᵀ x
//   subject to  A_eq x  = b_eq
//               A_ub x <= b_ub
//               x >= 0
//
// Bland's rule guarantees termination on degenerate problems. It solves
// the active-set QP's feasibility phase, the green reference and the
// deferral LP. The eq.-46 reference (the Rao et al. "optimal method"
// baseline) does not run here: its cost depends only on the IDC, so
// control::solve_reference fills the cheapest IDCs exactly, and tests
// check that fill against this solver. These LPs have tens to hundreds
// of variables, so a dense tableau is the right tool.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace gridctl::solvers {

struct LpProblem {
  linalg::Vector c;      // objective coefficients (minimization)
  linalg::Matrix a_eq;   // may be empty
  linalg::Vector b_eq;
  linalg::Matrix a_ub;   // may be empty
  linalg::Vector b_ub;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  linalg::Vector x;          // primal solution (original variables)
  double objective = 0.0;
  std::size_t iterations = 0;
};

struct LpOptions {
  std::size_t max_iterations = 10000;
  double tolerance = 1e-9;
};

LpResult solve_lp(const LpProblem& problem, const LpOptions& options = {});

}  // namespace gridctl::solvers
