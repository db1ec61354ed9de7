#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace gridctl::linalg {

namespace {

// Shared raw-pointer kernels. Both factorizations are left-looking with
// the dot products over the already-computed part of the row; operating
// on the raw row-major storage (instead of the bounds-checked accessor)
// keeps the inner loops branch-free and auto-vectorizable, which is
// what makes the repeated KKT factorizations in the QP solvers cheap.

// Forward substitution L y = b (L lower-triangular), overwriting b.
void forward_subst(const double* l, std::size_t n, double* b) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* lrow = l + i * n;
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lrow[j] * b[j];
    b[i] = sum / lrow[i];
  }
}

// Unit-diagonal forward substitution L y = b, overwriting b, from the
// rows of `lt` = Lᵀ (the columns of L): once b[j] is final it is
// subtracted from every later entry with one contiguous saxpy. Entry i
// still receives b[i] - L(i,0)·b[0] - L(i,1)·b[1] - … in that order,
// exactly as a row-dot substitution computes it, so the two agree bit
// for bit.
void forward_subst_unit_columns(const double* lt, std::size_t n, double* b) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* lcol = lt + j * n;
    const double bj = b[j];
    for (std::size_t i = j + 1; i < n; ++i) b[i] -= lcol[i] * bj;
  }
}

// Back substitution Lᵀ x = b, overwriting b. Walks columns of L (rows
// of Lᵀ) with a saxpy per step so the memory access stays row-major.
void backward_subst(const double* l, std::size_t n, bool unit, double* b) {
  for (std::size_t ii = n; ii-- > 0;) {
    const double x = unit ? b[ii] : b[ii] / l[ii * n + ii];
    b[ii] = x;
    if (x == 0.0) continue;
    for (std::size_t j = 0; j < ii; ++j) b[j] -= l[ii * n + j] * x;
  }
}

}  // namespace

Cholesky::Cholesky(const Matrix& a) : l_(a.rows(), a.cols()) {
  require(a.square(), "Cholesky: matrix must be square");
  const std::size_t n = a.rows();
  const double* src = a.data();
  double* l = l_.data();
  for (std::size_t i = 0; i < n; ++i) {
    double* lrow = l + i * n;
    // Off-diagonal entries of row i against prior rows j < i.
    for (std::size_t j = 0; j < i; ++j) {
      const double* ljrow = l + j * n;
      double sum = src[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= lrow[k] * ljrow[k];
      lrow[j] = sum / ljrow[j];
    }
    double diag = src[i * n + i];
    for (std::size_t k = 0; k < i; ++k) diag -= lrow[k] * lrow[k];
    if (diag <= 0.0 || !std::isfinite(diag)) {
      throw NumericalError("Cholesky: matrix is not positive definite");
    }
    lrow[i] = std::sqrt(diag);
  }
}

void Cholesky::solve_in_place(Vector& b) const {
  const std::size_t n = l_.rows();
  require(b.size() == n, "Cholesky::solve: dimension mismatch");
  forward_subst(l_.data(), n, b.data());
  backward_subst(l_.data(), n, /*unit=*/false, b.data());
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  require(b.rows() == l_.rows(), "Cholesky::solve: dimension mismatch");
  Matrix x(b.rows(), b.cols());
  Vector col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    solve_in_place(col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = col[r];
  }
  return x;
}

Ldlt::Ldlt(const Matrix& a) : l_(Matrix::identity(a.rows())), d_(a.rows()) {
  require(a.square(), "Ldlt: matrix must be square");
  scale_ = a.max_abs();
  const std::size_t n = a.rows();
  const double* src = a.data();
  double* l = l_.data();
  double* d = d_.data();
  // Row-scratch holding l_(i, k) * d_k for the active row, so the inner
  // dot products read two contiguous rows instead of touching d_[k]
  // per element.
  Vector ld(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* lrow = l + i * n;
    for (std::size_t j = 0; j < i; ++j) {
      const double* ljrow = l + j * n;
      double sum = src[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= ld[k] * ljrow[k];
      lrow[j] = (d[j] != 0.0) ? sum / d[j] : 0.0;
      ld[j] = lrow[j] * d[j];
    }
    double di = src[i * n + i];
    for (std::size_t k = 0; k < i; ++k) di -= lrow[k] * ld[k];
    d[i] = di;
  }
  lt_ = l_.transpose();
  singular_ = singular();
}

bool Ldlt::singular(double tol) const {
  const double threshold = tol * std::max(scale_, 1.0);
  for (double dj : d_) {
    if (std::abs(dj) <= threshold) return true;
  }
  return false;
}

void Ldlt::solve_in_place(Vector& b) const {
  const std::size_t n = l_.rows();
  require(b.size() == n, "Ldlt::solve: dimension mismatch");
  if (singular_) throw NumericalError("Ldlt::solve: matrix is singular");
  forward_subst_unit_columns(lt_.data(), n, b.data());
  for (std::size_t i = 0; i < n; ++i) b[i] /= d_[i];
  backward_subst(l_.data(), n, /*unit=*/true, b.data());
}

Vector Ldlt::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

}  // namespace gridctl::linalg
