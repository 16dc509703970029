// Householder QR tests: reconstruction, orthogonality, shapes, complex case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/counters.hpp"
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

TEST(Qr, GeqrtRDiagonalRealForComplexInput) {
  // With the LAPACK larfg convention, the diagonal of R is real.
  auto a = Matrix<zdouble>::random(12, 8, 13);
  Matrix<zdouble> t(la::geqrt_nb(12, 8), 8);
  la::geqrt(a.view(), t.view());
  for (index_t j = 0; j < 8; ++j) EXPECT_NEAR(a(j, j).imag(), 0.0, 1e-14);
}

/// gemqrt applied to [S; 0] must match the thin Q of the first k
/// reflectors (orgqr_into) times S: the only use the truncation kernels
/// make of it.
template <typename T>
void check_gemqrt(index_t m, index_t n, index_t k, std::uint64_t seed) {
  auto a = Matrix<T>::random(m, n, seed);
  Matrix<T> t(la::geqrt_nb(m, n), std::min(m, n));
  la::geqrt(a.view(), t.view());
  const index_t p = 3;
  auto s = Matrix<T>::random(k, p, seed + 1);
  Matrix<T> q(m, k), expected(m, p);
  la::orgqr_into(a.cview(), t.cview(), k, q.view());
  la::gemm(Op::NoTrans, Op::NoTrans, T{1}, q.cview(), s.cview(), T{},
           expected.view());
  Matrix<T> c(m, p);
  la::copy(s.cview(), c.view().block(0, 0, k, p));
  la::gemqrt(a.cview(), t.cview(), k, c.view());
  EXPECT_LT(rel_diff<T>(c.cview(), expected.cview()), 1e-13)
      << "m=" << m << " n=" << n << " k=" << k;
}

template <typename T>
void check_gemqrt_shapes() {
  check_gemqrt<T>(30, 8, 8, 21);    // tall
  check_gemqrt<T>(6, 20, 6, 22);    // wide
  check_gemqrt<T>(25, 12, 5, 23);   // k < min(m, n)
  check_gemqrt<T>(100, 70, 70, 24); // several T blocks
  check_gemqrt<T>(1, 4, 1, 25);     // single-row reflector
}

TEST(Gemqrt, MatchesOrgqrAndGemmReal) { check_gemqrt_shapes<double>(); }

TEST(Gemqrt, MatchesOrgqrAndGemmComplex) { check_gemqrt_shapes<zdouble>(); }

/// geqrt (recursive panels, compact-WY blocks) against the unblocked
/// reflector loop: the same R, reflectors and tau (the diagonal of the T
/// blocks), at widths around kQrBase and kQrNb.
template <typename T>
void check_geqrt_matches_unblocked(index_t m, index_t n) {
  auto a = Matrix<T>::random(m, n, static_cast<std::uint64_t>(m * 1000 + n));
  auto ref = Matrix<T>::from_view(a.cview());
  const index_t k = std::min(m, n);
  std::vector<T> tau(static_cast<std::size_t>(k));
  la::detail::geqrf_unblocked(ref.view(), tau.data());
  const index_t nb = la::geqrt_nb(m, n);
  Matrix<T> t(nb, k);
  la::geqrt(a.view(), t.view());
  EXPECT_LT(rel_diff<T>(a.cview(), ref.cview()), 1e-13)
      << "m=" << m << " n=" << n;
  double tau_err = 0;
  for (index_t i = 0; i < k; ++i)
    tau_err = std::max(tau_err, static_cast<double>(abs_val(
                                    t(i % nb, i) - tau[static_cast<std::size_t>(i)])));
  EXPECT_LT(tau_err, 1e-13) << "m=" << m << " n=" << n;
}

TEST(Geqrt, RecursionMatchesUnblockedLoop) {
  const index_t b = la::kQrBase;
  const index_t nb = la::kQrNb;
  for (const index_t n : {index_t{1}, b - 1, b, b + 1, 2 * b + 1, nb - 1, nb,
                          nb + 1, 2 * nb + 3}) {
    for (const index_t extra : {0, 7}) {
      check_geqrt_matches_unblocked<double>(n + extra, n);
      check_geqrt_matches_unblocked<zdouble>(n + extra, n);
    }
    check_geqrt_matches_unblocked<double>(std::max<index_t>(1, n / 2), n);
  }
}

/// A = U diag(sigma) V^H with orthonormal U (m x k), V (n x k).
template <typename T>
Matrix<T> with_singular_values(index_t m, index_t n,
                               const std::vector<double>& sigma,
                               std::uint64_t seed) {
  const index_t k = static_cast<index_t>(sigma.size());
  Matrix<T> u, v, r;
  la::qr_thin<T>(Matrix<T>::random(m, k, seed).cview(), u, r);
  la::qr_thin<T>(Matrix<T>::random(n, k, seed + 1).cview(), v, r);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      u(i, j) *= T(static_cast<real_t<T>>(sigma[static_cast<std::size_t>(j)]));
  Matrix<T> a(m, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, u.cview(), v.cview(), T{},
           a.view());
  return a;
}

/// Runs qr_pivoted_rank and checks its contract: Q^H Q = I on the rank
/// columns, rr zero below the rank rows, and ||A - Q rr||_F within the
/// dropped column norms (each <= rtol * first pivot) plus rounding.
template <typename T>
index_t checked_qrp(const Matrix<T>& a, double rtol, index_t max_rank = -1) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kk = std::min(m, n);
  Matrix<T> q(m, kk), rr(kk, n);
  Matrix<T> work = Matrix<T>::from_view(a.cview());  // factored in place
  const index_t r = la::qr_pivoted_rank<T>(work.view(), q.view(), rr.view(),
                                           rtol, max_rank);
  const double eps = std::numeric_limits<R>::epsilon();
  if (r > 0) {
    Matrix<T> qhq(r, r);
    la::gemm(Op::ConjTrans, Op::NoTrans, T{1}, q.cview().block(0, 0, m, r),
             q.cview().block(0, 0, m, r), T{}, qhq.view());
    auto eye = Matrix<T>::identity(r);
    EXPECT_LT(rel_diff<T>(qhq.cview(), eye.cview()), 50 * eps) << "rank " << r;
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = r; i < kk; ++i) EXPECT_EQ(rr(i, j), T{});
  Matrix<T> res = Matrix<T>::from_view(a.cview());
  la::gemm(Op::NoTrans, Op::NoTrans, T{-1}, q.cview().block(0, 0, m, r),
           ConstMatrixView<T>(rr.cview()).block(0, 0, r, n), T{1}, res.view());
  double norm0 = 0;
  for (index_t j = 0; j < n; ++j)
    norm0 = std::max(norm0, static_cast<double>(la::nrm2(m, a.cview().col(j))));
  const double bound =
      (max_rank < 0 ? std::sqrt(static_cast<double>(n)) * rtol * norm0 : 1e300) +
      50 * eps * static_cast<double>(la::norm_fro(a.cview()));
  EXPECT_LE(static_cast<double>(la::norm_fro(res.cview())), bound)
      << "rank " << r;
  return r;
}

template <typename T>
void check_qrp_ranks() {
  using R = real_t<T>;
  const bool single = sizeof(R) == sizeof(float);
  // Graded spectrum falling 100x per value; rtol sits mid-gap.
  std::vector<double> graded;
  for (int i = 0; i < (single ? 4 : 8); ++i) graded.push_back(std::pow(1e-2, i));
  const double rtol = single ? 1e-3 : 1e-9;
  const index_t expect = single ? 2 : 5;
  EXPECT_EQ(checked_qrp(with_singular_values<T>(30, 20, graded, 3), rtol),
            expect);
  EXPECT_EQ(checked_qrp(with_singular_values<T>(12, 26, graded, 4), rtol),
            expect);
  // Exactly rank-deficient: rank 6 of 26 columns, rtol well above rounding.
  const double tight = single ? 1e-4 : 1e-10;
  EXPECT_EQ(checked_qrp(testing::rank_r_matrix<T>(26, 26, 6, 5), tight), 6);
  EXPECT_EQ(checked_qrp(testing::rank_r_matrix<T>(40, 17, 9, 6), tight), 9);
  // The cap stops at max_rank columns even when more are above rtol.
  EXPECT_EQ(checked_qrp(Matrix<T>::random(20, 15, 7), tight, 4), 4);
  EXPECT_EQ(checked_qrp(Matrix<T>::random(20, 15, 7), tight, 0), 0);
  // Zero matrix: rank 0, rr all zero.
  EXPECT_EQ(checked_qrp(Matrix<T>(9, 5), tight), 0);
}

TEST(QrPivotedRank, RanksAndReconstructionFloat) { check_qrp_ranks<float>(); }
TEST(QrPivotedRank, RanksAndReconstructionDouble) { check_qrp_ranks<double>(); }
TEST(QrPivotedRank, RanksAndReconstructionComplex) { check_qrp_ranks<zdouble>(); }

template <typename T>
void check_recompute_on_cancellation() {
  // Columns 0 and 1 agree up to 1e-10 of their norm: once the first
  // reflector has taken one, the other keeps ~1e-10 of its norm, which a
  // downdate cannot see through the cancellation (it would carry ~0 and
  // stop a rank early with the 1e-10 column dropped). The recompute must
  // fire and reveal all four directions at rtol = 1e-12, and only three at
  // rtol = 1e-8, where the 1e-10 column is below the stop rule.
  Matrix<T> basis, r;
  la::qr_thin<T>(Matrix<T>::random(12, 4, 31).cview(), basis, r);
  const auto e = [&basis](index_t j) { return basis.cview().col(j); };
  Matrix<T> a(12, 4);
  for (index_t i = 0; i < 12; ++i) {
    a(i, 0) = e(0)[i];
    a(i, 1) = e(0)[i] + T(1e-10) * e(1)[i];
    a(i, 2) = T(1e-6) * e(2)[i];
    a(i, 3) = T(0.5) * e(0)[i] + T(0.3) * e(3)[i];
  }
  const ArithCounterSnapshot before = snapshot_arith_counters();
  EXPECT_EQ(checked_qrp(a, 1e-12), 4);
  const ArithCounterSnapshot after = snapshot_arith_counters();
  EXPECT_GE(after.qr_norm_recomputes, before.qr_norm_recomputes + 1);
  EXPECT_EQ(checked_qrp(a, 1e-8), 3);
}

TEST(QrPivotedRank, DowndatedNormsRecomputeOnCancellation) {
  check_recompute_on_cancellation<double>();
  check_recompute_on_cancellation<zdouble>();
}

TEST(QrPivotedRank, KeepsColumnsInOriginalOrder) {
  // Column 3 has the largest norm and is pivoted first, yet rr stays in
  // the input's column order: rr(0, 3) is its norm, and Q rr rebuilds
  // every column where it stood.
  auto a = Matrix<zdouble>::random(10, 5, 8);
  for (index_t i = 0; i < 10; ++i) a(i, 3) *= 100.0;
  Matrix<zdouble> q(10, 5), rr(5, 5);
  Matrix<zdouble> work = Matrix<zdouble>::from_view(a.cview());
  ASSERT_EQ(la::qr_pivoted_rank<zdouble>(work.view(), q.view(), rr.view(),
                                         1e-12),
            5);
  EXPECT_NEAR(rr(0, 3).real(), la::nrm2(10, a.cview().col(3)), 1e-12 * rr(0, 3).real());
  EXPECT_EQ(rr(0, 3).imag(), 0.0);
  for (index_t j = 0; j < 5; ++j) {
    if (j != 3) {
      EXPECT_NE(rr(0, j), zdouble{});
    }
  }
  Matrix<zdouble> back(10, 5);
  la::gemm(Op::NoTrans, Op::NoTrans, zdouble{1}, q.cview(), rr.cview(),
           zdouble{}, back.view());
  EXPECT_LT(rel_diff<zdouble>(back.cview(), a.cview()), 1e-13);
}

}  // namespace
}  // namespace hcham
