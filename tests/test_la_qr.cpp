// Householder QR tests: reconstruction, orthogonality, shapes, complex case.
#include <gtest/gtest.h>

#include <vector>

#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::ConstMatrixView;
using la::Matrix;
using la::Op;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

template <typename T>
void check_qr(index_t m, index_t n, std::uint64_t seed) {
  auto a = Matrix<T>::random(m, n, seed);
  Matrix<T> q, r;
  la::qr_thin<T>(a.cview(), q, r);
  const index_t k = std::min(m, n);
  ASSERT_EQ(q.rows(), m);
  ASSERT_EQ(q.cols(), k);
  ASSERT_EQ(r.rows(), k);
  ASSERT_EQ(r.cols(), n);

  // Q^H Q = I.
  Matrix<T> qhq(k, k);
  la::gemm(Op::ConjTrans, Op::NoTrans, T{1}, q.cview(), q.cview(), T{},
           qhq.view());
  auto eye = Matrix<T>::identity(k);
  EXPECT_LT(rel_diff<T>(qhq.cview(), eye.cview()), 1e-13)
      << "m=" << m << " n=" << n;

  // Q R = A.
  Matrix<T> qr(m, n);
  la::gemm(Op::NoTrans, Op::NoTrans, T{1}, q.cview(), r.cview(), T{},
           qr.view());
  EXPECT_LT(rel_diff<T>(qr.cview(), a.cview()), 1e-13)
      << "m=" << m << " n=" << n;

  // R upper triangular.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < k; ++i) EXPECT_EQ(r(i, j), T{});
}

TEST(Qr, TallRealMatrices) {
  check_qr<double>(20, 5, 1);
  check_qr<double>(100, 17, 2);
  check_qr<double>(7, 7, 3);
}

TEST(Qr, WideRealMatrices) {
  check_qr<double>(5, 20, 4);
  check_qr<double>(3, 50, 5);
}

TEST(Qr, DegenerateShapes) {
  check_qr<double>(1, 1, 6);
  check_qr<double>(10, 1, 7);
  check_qr<double>(1, 10, 8);
}

TEST(Qr, ComplexMatrices) {
  check_qr<zdouble>(20, 6, 9);
  check_qr<zdouble>(6, 20, 10);
  check_qr<zdouble>(15, 15, 11);
}

TEST(Qr, RankDeficientInputStillOrthogonal) {
  auto a = hcham::testing::rank_r_matrix<double>(30, 12, 3, 12);
  Matrix<double> q, r;
  la::qr_thin<double>(a.cview(), q, r);
  Matrix<double> qhq(12, 12);
  la::gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.cview(), q.cview(), 0.0,
           qhq.view());
  auto eye = Matrix<double>::identity(12);
  EXPECT_LT(rel_diff<double>(qhq.cview(), eye.cview()), 1e-12);
  Matrix<double> qr(30, 12);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, q.cview(), r.cview(), 0.0,
           qr.view());
  EXPECT_LT(rel_diff<double>(qr.cview(), a.cview()), 1e-12);
}

TEST(Qr, GeqrfRDiagonalRealForComplexInput) {
  // With the LAPACK larfg convention, the diagonal of R is real.
  auto a = Matrix<zdouble>::random(12, 8, 13);
  std::vector<zdouble> tau(8);
  la::geqrf(a.view(), tau.data());
  for (index_t j = 0; j < 8; ++j) EXPECT_NEAR(a(j, j).imag(), 0.0, 1e-14);
}

/// ormqr applied to [S; 0] must match the thin Q of the first k reflectors
/// (orgqr_into) times S: the only use the truncation kernels make of it.
template <typename T>
void check_ormqr(index_t m, index_t n, index_t k, std::uint64_t seed) {
  auto a = Matrix<T>::random(m, n, seed);
  std::vector<T> tau(std::min(m, n));
  la::geqrf(a.view(), tau.data());
  const index_t p = 3;
  auto s = Matrix<T>::random(k, p, seed + 1);
  Matrix<T> q(m, k), expected(m, p);
  la::orgqr_into(a.cview(), tau.data(), k, q.view());
  la::gemm(Op::NoTrans, Op::NoTrans, T{1}, q.cview(), s.cview(), T{},
           expected.view());
  Matrix<T> c(m, p);
  la::copy(s.cview(), c.view().block(0, 0, k, p));
  la::ormqr(a.cview(), tau.data(), k, c.view());
  EXPECT_LT(rel_diff<T>(c.cview(), expected.cview()), 1e-13)
      << "m=" << m << " n=" << n << " k=" << k;
}

template <typename T>
void check_ormqr_shapes() {
  check_ormqr<T>(30, 8, 8, 21);    // tall
  check_ormqr<T>(6, 20, 6, 22);    // wide
  check_ormqr<T>(25, 12, 5, 23);   // k < min(m, n)
  check_ormqr<T>(100, 70, 70, 24); // blocked geqrf panels
  check_ormqr<T>(1, 4, 1, 25);     // single-row reflector
}

TEST(Ormqr, MatchesOrgqrAndGemmReal) { check_ormqr_shapes<double>(); }

TEST(Ormqr, MatchesOrgqrAndGemmComplex) { check_ormqr_shapes<zdouble>(); }

}  // namespace
}  // namespace hcham
