#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/random.hpp"

namespace gridctl::linalg {
namespace {

TEST(Cholesky, FactorsKnownSpdMatrix) {
  const Matrix a{{4, 2}, {2, 3}};
  Cholesky chol(a);
  const Matrix l = chol.lower();
  EXPECT_TRUE(approx_equal(l * l.transpose(), a, 1e-12));
}

TEST(Cholesky, SolvesSpdSystem) {
  const Matrix a{{4, 2}, {2, 3}};
  const Vector x = Cholesky(a).solve(Vector{8, 7});
  const Vector residual = sub(a * x, Vector{8, 7});
  EXPECT_LT(norm_inf(residual), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  EXPECT_THROW(Cholesky(Matrix{{1, 0}, {0, -1}}), NumericalError);
  EXPECT_THROW(Cholesky(Matrix{{0, 0}, {0, 0}}), NumericalError);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), InvalidArgument);
}

TEST(Cholesky, RandomGramMatricesSolve) {
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + 3 * static_cast<std::size_t>(trial);
    Matrix g(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
    }
    Matrix a = g.transpose() * g;
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
    Vector b(n);
    for (double& v : b) v = rng.normal();
    const Vector x = Cholesky(a).solve(b);
    EXPECT_LT(norm_inf(sub(a * x, b)), 1e-9);
  }
}

TEST(Ldlt, FactorsIndefiniteQuasiDefinite) {
  // Typical ADMM KKT block structure: [[P + sI, Aᵀ], [A, -I/rho]].
  const Matrix kkt{{3, 0, 1}, {0, 2, -1}, {1, -1, -0.5}};
  Ldlt factor(kkt);
  EXPECT_FALSE(factor.singular());
  const Vector b{1, 2, 3};
  const Vector x = factor.solve(b);
  EXPECT_LT(norm_inf(sub(kkt * x, b)), 1e-10);
}

TEST(Ldlt, ReconstructsMatrix) {
  const Matrix a{{4, 2}, {2, -3}};
  Ldlt factor(a);
  const Matrix l = factor.unit_lower();
  const Matrix reconstructed =
      l * Matrix::diagonal(factor.diag()) * l.transpose();
  EXPECT_TRUE(approx_equal(reconstructed, a, 1e-12));
}

TEST(Ldlt, SingularDetection) {
  Ldlt factor(Matrix{{1, 1}, {1, 1}});
  EXPECT_TRUE(factor.singular());
  EXPECT_THROW(factor.solve(Vector{1, 1}), NumericalError);
}

TEST(Ldlt, SolveWithSingularFactorThrowsOnEveryCall) {
  // A zero pivot in the middle of a KKT-shaped matrix: the singularity
  // decision is made once, at factorization, and every later solve —
  // in place or not — still refuses.
  const Ldlt factor(Matrix{{2, 0, 1}, {0, 0, 0}, {1, 0, -1}});
  EXPECT_TRUE(factor.singular());
  for (int call = 0; call < 3; ++call) {
    Vector b{1, 2, 3};
    EXPECT_THROW(factor.solve_in_place(b), NumericalError) << "call " << call;
    EXPECT_THROW(factor.solve(Vector{1, 2, 3}), NumericalError)
        << "call " << call;
  }
  // A looser tolerance can still be queried after the fact.
  const Ldlt tiny(Matrix{{1e-13, 0}, {0, 1}});
  EXPECT_TRUE(tiny.singular());
  EXPECT_FALSE(tiny.singular(1e-14));
}

// Pins the summation order of Ldlt::solve_in_place: on seeded random
// quasi-definite KKT matrices [[P + σI, Aᵀ], [A, −diag(1/ρ)]] of every
// size from 1 to 80, the solve must equal, element for element, the
// textbook row-oriented substitution below (each entry's sum taken in
// ascending column order forward, descending backward). A later edit
// that reorders those sums fails here.
TEST(Ldlt, SolveMatchesRowOrientedSubstitutionExactly) {
  Rng rng(2012);
  for (std::size_t size = 1; size <= 80; ++size) {
    const std::size_t n = (size + 1) / 2;
    const std::size_t m = size - n;
    Matrix g(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
    }
    Matrix kkt(size, size);
    kkt.set_block(0, 0, g.transpose() * g);
    for (std::size_t i = 0; i < n; ++i) kkt(i, i) += 1e-6 + rng.uniform();
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double aij = rng.uniform() < 0.3 ? 0.0 : rng.normal();
        kkt(n + i, j) = aij;
        kkt(j, n + i) = aij;
      }
      kkt(n + i, n + i) = -1.0 / (rng.uniform() < 0.5 ? 0.1 : 100.0);
    }
    const Ldlt factor(kkt);
    ASSERT_FALSE(factor.singular()) << "size " << size;

    Vector b(size);
    for (double& v : b) v = rng.normal();
    const Matrix& l = factor.unit_lower();
    const Vector& d = factor.diag();
    Vector expect = b;
    for (std::size_t i = 0; i < size; ++i) {
      double sum = expect[i];
      for (std::size_t j = 0; j < i; ++j) sum -= l(i, j) * expect[j];
      expect[i] = sum;
    }
    for (std::size_t i = 0; i < size; ++i) expect[i] /= d[i];
    for (std::size_t i = size; i-- > 0;) {
      double sum = expect[i];
      for (std::size_t k = size; k-- > i + 1;) sum -= l(k, i) * expect[k];
      expect[i] = sum;
    }

    Vector got = b;
    factor.solve_in_place(got);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(got[i], expect[i]) << "size " << size << ", entry " << i;
    }
  }
}

}  // namespace
}  // namespace gridctl::linalg
