// Unit + property tests for ptsbe/linalg: Matrix algebra, CPTP checks,
// scaled-unitary detection, Jacobi SVD.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/linalg/matrix.hpp"
#include "ptsbe/linalg/svd.hpp"

namespace ptsbe {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, RngStream& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return m;
}

TEST(Matrix, IdentityAndTrace) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(i3.trace(), (cplx{3.0, 0.0}));
  EXPECT_TRUE(is_unitary(i3));
  EXPECT_TRUE(is_hermitian(i3));
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  const Matrix a(2, 2, {1, 2, 3, 4});
  const Matrix b(2, 2, {5, 6, 7, 8});
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), (cplx{19, 0}));
  EXPECT_EQ(c(0, 1), (cplx{22, 0}));
  EXPECT_EQ(c(1, 0), (cplx{43, 0}));
  EXPECT_EQ(c(1, 1), (cplx{50, 0}));
}

TEST(Matrix, DaggerConjugatesAndTransposes) {
  Matrix m(2, 2);
  m(0, 1) = cplx{1.0, 2.0};
  const Matrix d = m.dagger();
  EXPECT_EQ(d(1, 0), (cplx{1.0, -2.0}));
  EXPECT_EQ(d(0, 1), (cplx{0.0, 0.0}));
}

TEST(Matrix, KronDimensionsAndValues) {
  const Matrix k = kron(gates::Z(), gates::X());
  ASSERT_EQ(k.rows(), 4u);
  // Z⊗X: block diag(X, -X).
  EXPECT_EQ(k(0, 1), (cplx{1, 0}));
  EXPECT_EQ(k(2, 3), (cplx{-1, 0}));
  EXPECT_TRUE(is_unitary(k));
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 3);
  EXPECT_THROW(a += b, precondition_error);
  EXPECT_THROW((void)(a * Matrix(3, 2)), precondition_error);
  EXPECT_THROW((void)Matrix(2, 3).trace(), precondition_error);
}

TEST(Matrix, NanNeverComparesClose) {
  // std::max(m, NaN) is m; a NaN entry must not be folded away as "close".
  Matrix m = Matrix::identity(2);
  m(0, 1) = cplx{std::nan(""), 0.0};
  EXPECT_TRUE(std::isnan(m.max_abs_diff(Matrix::identity(2))));
  EXPECT_FALSE(approx_equal(m, Matrix::identity(2), 1.0));
  EXPECT_FALSE(is_unitary(m));
  const std::vector<Matrix> kraus = {m};
  EXPECT_FALSE(is_cptp_set(kraus));
}

TEST(GateLibrary, AllGatesAreUnitary) {
  for (const Matrix& g :
       {gates::I(), gates::X(), gates::Y(), gates::Z(), gates::H(), gates::S(),
        gates::Sdg(), gates::T(), gates::Tdg(), gates::SX(), gates::SXdg(),
        gates::SY(), gates::SYdg(), gates::RX(0.3), gates::RY(1.2),
        gates::RZ(-0.7), gates::P(0.4), gates::U3(0.1, 0.2, 0.3), gates::CX(),
        gates::CZ(), gates::CY(), gates::SWAP(), gates::ISWAP()})
    EXPECT_TRUE(is_unitary(g));
}

TEST(GateLibrary, SqrtGatesSquareToPaulis) {
  EXPECT_TRUE(approx_equal(gates::SX() * gates::SX(), gates::X(), 1e-12));
  EXPECT_TRUE(approx_equal(gates::SY() * gates::SY(), gates::Y(), 1e-12));
}

TEST(GateLibrary, SXEqualsHSH) {
  EXPECT_TRUE(
      approx_equal(gates::H() * gates::S() * gates::H(), gates::SX(), 1e-12));
}

TEST(CptpCheck, ValidKrausSetAccepted) {
  const double p = 0.2;
  std::vector<Matrix> ops{gates::I() * cplx{std::sqrt(1 - p), 0},
                          gates::X() * cplx{std::sqrt(p), 0}};
  EXPECT_TRUE(is_cptp_set(ops));
}

TEST(CptpCheck, NonCptpRejected) {
  std::vector<Matrix> ops{gates::I() * cplx{0.9, 0}};
  EXPECT_FALSE(is_cptp_set(ops));
}

TEST(ScaledUnitary, DetectsAndExtracts) {
  double p = 0.0;
  Matrix u;
  const Matrix k = gates::Y() * cplx{std::sqrt(0.25), 0};
  ASSERT_TRUE(as_scaled_unitary(k, p, &u));
  EXPECT_NEAR(p, 0.25, 1e-12);
  EXPECT_TRUE(approx_equal(u, gates::Y(), 1e-10));
}

TEST(ScaledUnitary, RejectsDampingKraus) {
  const Matrix k(2, 2, {0.0, std::sqrt(0.3), 0.0, 0.0});
  double p = 0.0;
  EXPECT_FALSE(as_scaled_unitary(k, p));
}

class SvdShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapes, ReconstructsAndIsOrthogonal) {
  const auto [rows, cols] = GetParam();
  RngStream rng(static_cast<std::uint64_t>(rows * 131 + cols));
  const Matrix a = random_matrix(rows, cols, rng);
  const SvdResult f = svd(a);
  const std::size_t r = std::min<std::size_t>(rows, cols);
  ASSERT_EQ(f.s.size(), r);
  // Descending singular values, all non-negative.
  for (std::size_t i = 0; i + 1 < r; ++i) EXPECT_GE(f.s[i], f.s[i + 1] - 1e-12);
  EXPECT_GE(f.s.back(), -1e-12);
  // Reconstruction A = U·diag(S)·V†.
  Matrix usv(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) {
      cplx acc{0, 0};
      for (std::size_t k = 0; k < r; ++k) acc += f.u(i, k) * f.s[k] * f.vdag(k, j);
      usv(i, j) = acc;
    }
  EXPECT_LT(usv.max_abs_diff(a), 1e-9);
  // Column orthonormality where singular values are significant.
  const Matrix utu = f.u.dagger() * f.u;
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < r; ++j)
      if (f.s[i] > 1e-9 && f.s[j] > 1e-9) {
        EXPECT_NEAR(std::abs(utu(i, j) - (i == j ? cplx{1, 0} : cplx{0, 0})),
                    0.0, 1e-9);
      }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{4, 4}, std::pair{8, 3},
                                           std::pair{3, 8}, std::pair{16, 16},
                                           std::pair{12, 5}, std::pair{5, 12},
                                           std::pair{32, 32}));

TEST(Svd, RankDeficientMatrix) {
  // Outer product → rank 1.
  Matrix a(4, 4);
  RngStream rng(5);
  std::vector<cplx> u(4), v(4);
  for (int i = 0; i < 4; ++i) {
    u[i] = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    v[i] = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) a(i, j) = u[i] * std::conj(v[j]);
  const SvdResult f = svd(a);
  EXPECT_GT(f.s[0], 1e-6);
  for (std::size_t k = 1; k < f.s.size(); ++k) EXPECT_LT(f.s[k], 1e-9);
}

TEST(Svd, DiagonalMatrixExact) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 2.0;
  a(2, 2) = 1.0;
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(TruncatedRank, KeepsEnergyBudget) {
  const std::vector<double> s{1.0, 0.5, 0.1, 0.01, 0.001};
  // Budget 0: keep everything except nothing (all weights positive).
  EXPECT_EQ(truncated_rank(s, 0.0), 5u);
  // Huge budget: one value always kept.
  EXPECT_EQ(truncated_rank(s, 1.0), 1u);
  // Cap applies.
  EXPECT_EQ(truncated_rank(s, 0.0, 2), 2u);
  // Small budget trims only the tiny tail.
  const std::size_t k = truncated_rank(s, 1e-5);
  EXPECT_GE(k, 3u);
  EXPECT_LE(k, 4u);
}

}  // namespace
}  // namespace ptsbe
