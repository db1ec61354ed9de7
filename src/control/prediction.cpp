#include "control/prediction.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace gridctl::control {

using linalg::Matrix;
using linalg::Vector;

void MpcPlant::validate() const {
  const std::size_t n = phi.rows();
  const std::size_t m = c_u.cols();
  const std::size_t p = c_u.rows();
  require(phi.cols() == n, "MpcPlant: Phi must be square");
  require(p > 0 && m > 0, "MpcPlant: need outputs and inputs");
  if (n > 0) {
    require(g.rows() == n && g.cols() == m, "MpcPlant: G must be n x m");
    require(w.size() == n, "MpcPlant: w must have n entries");
    require(c_x.rows() == p && c_x.cols() == n, "MpcPlant: C_x must be p x n");
  } else {
    require(g.empty() && w.empty() && c_x.empty(),
            "MpcPlant: stateless plant must have empty Phi/G/w/C_x");
  }
  require(y0.size() == p, "MpcPlant: y0 must have p entries");
}

void MpcHorizons::validate() const {
  require(control >= 1, "MpcHorizons: control horizon must be >= 1");
  require(prediction >= control,
          "MpcHorizons: prediction horizon must be >= control horizon");
}

Matrix cumulative_selector(std::size_t num_inputs,
                           std::size_t control_horizon) {
  Matrix sel(num_inputs * control_horizon, num_inputs * control_horizon);
  for (std::size_t t = 0; t < control_horizon; ++t) {
    for (std::size_t tau = 0; tau <= t; ++tau) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        sel(t * num_inputs + i, tau * num_inputs + i) = 1.0;
      }
    }
  }
  return sel;
}

void build_theta_into(const MpcPlant& plant, const MpcHorizons& horizons,
                      Matrix& theta) {
  plant.validate();
  horizons.validate();
  const std::size_t n = plant.num_states();
  const std::size_t m = plant.num_inputs();
  const std::size_t p = plant.num_outputs();
  const std::size_t b1 = horizons.prediction;
  const std::size_t b2 = horizons.control;

  theta.resize(p * b1, m * b2);

  // Move sensitivities: x_move_s[tau] = dX_s / dΔU_tau. Independent of
  // the current state and previous input, which is what makes theta
  // cacheable across control periods.
  std::vector<Matrix> x_move(b2, Matrix(n, m));
  for (std::size_t s = 1; s <= b1; ++s) {
    const std::size_t t = std::min(s - 1, b2 - 1);
    if (n > 0) {
      std::vector<Matrix> next_move(b2, Matrix(n, m));
      for (std::size_t tau = 0; tau < b2; ++tau) {
        next_move[tau] = plant.phi * x_move[tau];
        if (tau <= t) next_move[tau] += plant.g;
      }
      x_move = std::move(next_move);
    }
    for (std::size_t tau = 0; tau < b2; ++tau) {
      Matrix block(p, m);
      if (n > 0) block = plant.c_x * x_move[tau];
      if (tau <= t) block += plant.c_u;
      theta.set_block((s - 1) * p, tau * m, block);
    }
  }
}

void build_constant_into(const MpcPlant& plant, const MpcHorizons& horizons,
                         const Vector& x, const Vector& u_prev,
                         Vector& constant, ConstantScratch& scratch) {
  plant.validate();
  horizons.validate();
  const std::size_t n = plant.num_states();
  const std::size_t m = plant.num_inputs();
  const std::size_t p = plant.num_outputs();
  const std::size_t b1 = horizons.prediction;
  require(x.size() == n, "build_prediction: state size mismatch");
  require(u_prev.size() == m, "build_prediction: input size mismatch");

  constant.assign(p * b1, 0.0);

  // Affine part of the recursion X_{k+s} = Phi X_{k+s-1} + G U + w with
  // all moves zero: x_const_s = Phi^s x + sum Phi^t w +
  // (sum Phi^{s-1-t} G) u_prev.
  Vector& x_const = scratch.x_const;
  x_const.assign(x.begin(), x.end());
  if (n > 0) linalg::multiply_into(plant.g, u_prev, scratch.gu);
  linalg::multiply_into(plant.c_u, u_prev, scratch.cu);

  for (std::size_t s = 1; s <= b1; ++s) {
    if (n > 0) {
      linalg::multiply_into(plant.phi, x_const, scratch.x_next);
      for (std::size_t i = 0; i < n; ++i) {
        scratch.x_next[i] += scratch.gu[i] + plant.w[i];
      }
      std::swap(x_const, scratch.x_next);
      linalg::multiply_into(plant.c_x, x_const, scratch.cx);
    }
    // Output row block s-1: Y_s = C_x X_s + C_u U_t + y0.
    double* y_const = constant.data() + (s - 1) * p;
    for (std::size_t i = 0; i < p; ++i) {
      y_const[i] = plant.y0[i];
      if (n > 0) y_const[i] += scratch.cx[i];
      y_const[i] += scratch.cu[i];
    }
  }
}

StackedPrediction build_prediction(const MpcPlant& plant,
                                   const MpcHorizons& horizons,
                                   const Vector& x, const Vector& u_prev) {
  StackedPrediction out;
  build_theta_into(plant, horizons, out.theta);
  ConstantScratch scratch;
  build_constant_into(plant, horizons, x, u_prev, out.constant, scratch);
  return out;
}

}  // namespace gridctl::control
