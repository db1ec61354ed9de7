// Cholesky (LLᵀ) and LDLᵀ factorizations for symmetric systems.
//
// The dense ADMM QP solver factors a symmetric quasi-definite KKT matrix
// once and solves against it every iteration; LDLᵀ handles the
// indefinite (+σI / −diag(1/ρ)) blocks, while plain Cholesky serves
// strictly positive-definite normal equations.
#pragma once

#include "linalg/matrix.hpp"

namespace gridctl::linalg {

// A = L Lᵀ with L lower-triangular; requires symmetric positive-definite.
class Cholesky {
 public:
  // Throws NumericalError when `a` is not (numerically) SPD.
  explicit Cholesky(const Matrix& a);

  Vector solve(const Vector& b) const;
  Matrix solve(const Matrix& b) const;
  // Overwrites `b` with A⁻¹b; allocation-free (the arena-friendly form
  // used by the condensed MPC solver's hot loop).
  void solve_in_place(Vector& b) const;

  const Matrix& lower() const { return l_; }

 private:
  Matrix l_;
};

// A = L D Lᵀ with unit-lower-triangular L and diagonal D (no pivoting;
// adequate for the quasi-definite KKT systems gridctl builds, whose
// diagonal is bounded away from zero by construction).
//
// The factor keeps L and Lᵀ, both row-major, so each substitution
// walks contiguous memory with a saxpy per step: the forward solve
// reads the columns of L (rows of Lᵀ), the back solve the rows of L.
// Every element still sees the same subtractions in the same order as
// the textbook row-dot substitution, so the result is bit-identical
// and vectorizes without reassociation.
class Ldlt {
 public:
  explicit Ldlt(const Matrix& a);

  bool singular(double tol = 1e-12) const;
  Vector solve(const Vector& b) const;
  // Overwrites `b` with A⁻¹b; allocation-free. Throws NumericalError
  // when the factor is singular() at the default tolerance (decided
  // once, at factorization).
  void solve_in_place(Vector& b) const;

  const Matrix& unit_lower() const { return l_; }
  const Vector& diag() const { return d_; }

 private:
  Matrix l_;
  Matrix lt_;  // Lᵀ, for the column-oriented forward substitution
  Vector d_;
  double scale_ = 0.0;
  bool singular_ = false;  // singular() at the default tolerance
};

}  // namespace gridctl::linalg
