// Stacked MPC prediction matrices — the paper's Θ, Ξ, W′, Ω̄ machinery
// (eq. 39–41), generalized to any discrete LTI plant with an affine
// per-step disturbance and direct feedthrough:
//
//   X(k+1) = Phi X(k) + G U(k) + w
//   Y(k)   = C_x X(k) + C_u U(k-? ) + y0     (see below)
//
// The tracked output at prediction step s (s = 1..β1) is
//   Y_s = C_x X_{k+s} + C_u U_{k + min(s-1, β2-1)} + y0
// i.e. the feedthrough sees the input applied over the interval ending
// at k+s, so the first predicted output already responds to the first
// control move — the convention that makes power tracking well-posed.
//
// Inputs are parameterized by moves: U_t = U_{k-1} + Σ_{τ<=t} ΔU_τ for
// t < β2, held at U_{k+β2-1} afterwards. `build_prediction` returns the
// affine map from the stacked move vector to the stacked outputs.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace gridctl::control {

// Generic plant the MPC controls. The state block may be empty
// (num_states() == 0) for purely memoryless tracked outputs such as
// per-IDC power.
struct MpcPlant {
  linalg::Matrix phi;     // n x n
  linalg::Matrix g;       // n x m
  linalg::Vector w;       // n, constant per-step disturbance (e.g. Γ V)
  linalg::Matrix c_x;     // p x n
  linalg::Matrix c_u;     // p x m
  linalg::Vector y0;      // p

  std::size_t num_states() const { return phi.rows(); }
  std::size_t num_inputs() const { return c_u.cols(); }
  std::size_t num_outputs() const { return c_u.rows(); }

  void validate() const;
};

struct MpcHorizons {
  std::size_t prediction = 8;  // β1
  std::size_t control = 2;     // β2 (1 <= β2 <= β1)

  void validate() const;
};

// Y_stack = theta * dU_stack + constant, where
//   Y_stack  = [Y_1; …; Y_β1]              (p β1)
//   dU_stack = [ΔU_0; …; ΔU_{β2-1}]        (m β2)
struct StackedPrediction {
  linalg::Matrix theta;
  linalg::Vector constant;
};

StackedPrediction build_prediction(const MpcPlant& plant,
                                   const MpcHorizons& horizons,
                                   const linalg::Vector& x,
                                   const linalg::Vector& u_prev);

// Split form for per-tick reuse: theta depends only on the plant and
// the horizons (never on the current state or input), so controllers
// cache it across control periods and rebuild only the affine constant.
// Both write into their output arguments, reusing existing storage when
// the shape is unchanged; with a reused `scratch`, build_constant_into
// allocates nothing once the shapes have settled.
struct ConstantScratch {
  linalg::Vector x_const, x_next, gu, cu, cx;
};
void build_theta_into(const MpcPlant& plant, const MpcHorizons& horizons,
                      linalg::Matrix& theta);
void build_constant_into(const MpcPlant& plant, const MpcHorizons& horizons,
                         const linalg::Vector& x, const linalg::Vector& u_prev,
                         linalg::Vector& constant, ConstantScratch& scratch);

// The block-lower-triangular cumulative selector Ī (paper eq. 43–45):
// row-block t maps dU_stack to U_t - U_{k-1} = Σ_{τ<=t} ΔU_τ.
linalg::Matrix cumulative_selector(std::size_t num_inputs,
                                   std::size_t control_horizon);

}  // namespace gridctl::control
