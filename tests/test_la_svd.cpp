// One-sided Jacobi SVD tests: reconstruction, orthogonality, known spectra,
// rank detection, complex inputs, degenerate shapes, and the sweep count
// of the carried-norm update on graded inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::Matrix;
using la::Op;
using hcham::testing::rank_r_matrix;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

template <typename T>
void check_svd(const Matrix<T>& a, double tol = 1e-12) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  auto r = la::svd<T>(a.cview());
  ASSERT_EQ(r.u.rows(), m);
  ASSERT_EQ(r.u.cols(), k);
  ASSERT_EQ(r.v.rows(), n);
  ASSERT_EQ(r.v.cols(), k);
  ASSERT_EQ(static_cast<index_t>(r.sigma.size()), k);

  // Sorted decreasing and non-negative.
  for (index_t i = 0; i + 1 < k; ++i) {
    EXPECT_GE(r.sigma[static_cast<std::size_t>(i)],
              r.sigma[static_cast<std::size_t>(i + 1)]);
  }
  if (k > 0) {
    EXPECT_GE(r.sigma.back(), 0.0);
  }

  // Reconstruction U * S * V^H = A.
  Matrix<T> us(m, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      us(i, j) = r.u(i, j) * T(r.sigma[static_cast<std::size_t>(j)]);
  Matrix<T> rec(m, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, us.cview(), r.v.cview(), T{},
           rec.view());
  EXPECT_LT(rel_diff<T>(rec.cview(), a.cview()), tol);

  // U^H U = I on the numerically nonzero part; V^H V = I always.
  Matrix<T> vhv(k, k);
  la::gemm(Op::ConjTrans, Op::NoTrans, T{1}, r.v.cview(), r.v.cview(), T{},
           vhv.view());
  auto eye = Matrix<T>::identity(k);
  EXPECT_LT(rel_diff<T>(vhv.cview(), eye.cview()), 1e-11);
}

TEST(Svd, RandomSquareReal) {
  check_svd(Matrix<double>::random(20, 20, 1));
  check_svd(Matrix<double>::random(45, 45, 2));
}

TEST(Svd, TallAndWideReal) {
  check_svd(Matrix<double>::random(40, 12, 3));
  check_svd(Matrix<double>::random(12, 40, 4));
}

TEST(Svd, Complex) {
  check_svd(Matrix<zdouble>::random(25, 25, 5));
  check_svd(Matrix<zdouble>::random(30, 9, 6));
  check_svd(Matrix<zdouble>::random(9, 30, 7));
}

TEST(Svd, DiagonalMatrixRecoversEntries) {
  Matrix<double> a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -7.0;  // singular value is |.|
  a(2, 2) = 0.5;
  a(3, 3) = 10.0;
  auto r = la::svd<double>(a.cview());
  EXPECT_NEAR(r.sigma[0], 10.0, 1e-12);
  EXPECT_NEAR(r.sigma[1], 7.0, 1e-12);
  EXPECT_NEAR(r.sigma[2], 3.0, 1e-12);
  EXPECT_NEAR(r.sigma[3], 0.5, 1e-12);
}

TEST(Svd, RankDeficiencyDetected) {
  auto a = rank_r_matrix<double>(30, 20, 5, 8);
  auto r = la::svd<double>(a.cview());
  EXPECT_EQ(la::numerical_rank(r.sigma, 1e-10), 5);
  check_svd(a, 1e-11);
}

TEST(Svd, ComplexRankDeficiency) {
  auto a = rank_r_matrix<zdouble>(24, 18, 4, 9);
  auto r = la::svd<zdouble>(a.cview());
  EXPECT_EQ(la::numerical_rank(r.sigma, 1e-10), 4);
}

TEST(Svd, ZeroMatrix) {
  Matrix<double> a(5, 3);
  auto r = la::svd<double>(a.cview());
  for (double s : r.sigma) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(la::numerical_rank(r.sigma, 1e-10), 0);
}

TEST(Svd, SingleElement) {
  Matrix<double> a(1, 1);
  a(0, 0) = -4.0;
  auto r = la::svd<double>(a.cview());
  EXPECT_NEAR(r.sigma[0], 4.0, 1e-15);
  check_svd(a, 1e-14);
}

TEST(Svd, SingularValuesMatchFrobeniusNorm) {
  auto a = Matrix<double>::random(15, 10, 10);
  auto r = la::svd<double>(a.cview());
  double sumsq = 0;
  for (double s : r.sigma) sumsq += s * s;
  const double fro = la::norm_fro(a.cview());
  EXPECT_NEAR(std::sqrt(sumsq), fro, 1e-12 * fro);
}

TEST(Svd, OrthonormalInputGivesUnitSigmas) {
  Matrix<double> q, r0;
  la::qr_thin<double>(Matrix<double>::random(30, 8, 11).cview(), q, r0);
  auto r = la::svd<double>(q.cview());
  for (double s : r.sigma) EXPECT_NEAR(s, 1.0, 1e-12);
}

// Jacobi carries each column's squared norm through the rotations
// (app - t*|apq|, aqq + t*|apq|) instead of recomputing it per pair. A
// wrong carried norm still converges, since the norms are recomputed at
// every sweep start and sigma comes from the final columns, but it steers
// the rotation angles off and costs extra sweeps. The sweep count on fixed
// graded inputs (column j scaled by 10^(-8 j / (n - 1))) pins the update:
// these converge in 4 sweeps; a flipped sign in the update needs 6.
template <typename T>
void check_graded_sweeps(index_t m, index_t n) {
  auto a = Matrix<T>::random(m, n, static_cast<std::uint64_t>(40 + m));
  for (index_t j = 0; j < n; ++j) {
    const double s = std::pow(10.0, -8.0 * static_cast<double>(j) /
                                        static_cast<double>(n - 1));
    for (index_t i = 0; i < m; ++i) a(i, j) *= static_cast<real_t<T>>(s);
  }
  const ArithCounterSnapshot before = snapshot_arith_counters();
  check_svd(a);
  const ArithCounterSnapshot after = snapshot_arith_counters();
  EXPECT_LE(after.svd_sweeps - before.svd_sweeps, 4u)
      << precision_tag<T>() << " " << m << "x" << n;
  EXPECT_EQ(after.svd_unconverged, before.svd_unconverged);
}

TEST(Svd, CarriedNormsKeepGradedSweepCount) {
  check_graded_sweeps<double>(40, 20);
  check_graded_sweeps<double>(60, 30);
  check_graded_sweeps<zdouble>(40, 20);
  check_graded_sweeps<zdouble>(60, 30);
}

}  // namespace
}  // namespace hcham
