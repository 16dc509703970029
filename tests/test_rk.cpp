// RkMatrix, truncation, and rounded-addition tests.
#include <gtest/gtest.h>

#include "rk/rk_matrix.hpp"
#include "rk/truncation.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::Matrix;
using la::Op;
using rk::RkMatrix;
using rk::TruncationParams;
using hcham::testing::rank_r_matrix;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

template <typename T>
RkMatrix<T> random_rk(index_t m, index_t n, index_t k, std::uint64_t seed) {
  return RkMatrix<T>(Matrix<T>::random(m, k, seed),
                     Matrix<T>::random(n, k, seed + 1));
}

TEST(RkMatrix, ZeroConstruction) {
  RkMatrix<double> a(5, 7);
  EXPECT_EQ(a.rows(), 5);
  EXPECT_EQ(a.cols(), 7);
  EXPECT_EQ(a.rank(), 0);
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(a.stored_elements(), 0);
  auto d = a.dense();
  EXPECT_EQ(la::norm_fro(d.cview()), 0.0);
}

TEST(RkMatrix, DenseMatchesFactors) {
  auto a = random_rk<double>(8, 6, 3, 1);
  Matrix<double> expected(8, 6);
  la::gemm(Op::NoTrans, Op::ConjTrans, 1.0, a.u().cview(), a.v().cview(), 0.0,
           expected.view());
  EXPECT_LT(rel_diff<double>(a.dense().cview(), expected.cview()), 1e-15);
  EXPECT_EQ(a.stored_elements(), (8 + 6) * 3);
}

TEST(RkMatrix, AddToAccumulates) {
  auto a = random_rk<zdouble>(5, 5, 2, 3);
  auto base = Matrix<zdouble>::random(5, 5, 9);
  auto acc = Matrix<zdouble>::from_view(base.cview());
  a.add_to(zdouble(2, 1), acc.view());
  auto expected = Matrix<zdouble>::from_view(base.cview());
  la::axpy(zdouble(2, 1), a.dense().cview(), expected.view());
  EXPECT_LT(rel_diff<zdouble>(acc.cview(), expected.cview()), 1e-14);
}

TEST(RkMatrix, MismatchedFactorsThrow) {
  RkMatrix<double> a(5, 7);
  EXPECT_THROW(
      a.set_factors(Matrix<double>::random(5, 2, 0),
                    Matrix<double>::random(7, 3, 1)),
      Error);
  EXPECT_THROW(
      a.set_factors(Matrix<double>::random(4, 2, 0),
                    Matrix<double>::random(7, 2, 1)),
      Error);
}

template <typename T>
void check_rk_gemv(Op op, index_t m, index_t n, index_t k,
                   std::uint64_t seed) {
  auto a = random_rk<T>(m, n, k, seed);
  auto dense = a.dense();
  const index_t xd = (op == Op::NoTrans) ? n : m;
  const index_t yd = (op == Op::NoTrans) ? m : n;
  auto x = Matrix<T>::random(xd, 1, seed + 5);
  auto y = Matrix<T>::random(yd, 1, seed + 6);
  auto y_ref = Matrix<T>::from_view(y.cview());
  const T alpha = T(static_cast<real_t<T>>(2));
  a.gemv(op, alpha, x.data(), y.data());
  la::gemv(op, alpha, dense.cview(), x.data(), T{1}, y_ref.data());
  EXPECT_LT(rel_diff<T>(y.cview(), y_ref.cview()), 1e-13)
      << la::to_string(op);
}

TEST(RkMatrix, GemvAllOpsReal) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_rk_gemv<double>(op, 13, 9, 4, 100);
}

TEST(RkMatrix, GemvAllOpsComplex) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_rk_gemv<zdouble>(op, 10, 14, 3, 200);
}

// Panel applies: Y += alpha * op(U V^H) X and Y += alpha * X (U V^H),
// the Rk-leaf kernels of hmat::matmat / matmat_left.
template <typename T>
void check_rk_apply(Op op, std::uint64_t seed) {
  const index_t m = 30, n = 22, k = 6, q = 4;
  auto a = random_rk<T>(m, n, k, seed);
  auto dense = a.dense();
  const index_t xr = (op == Op::NoTrans) ? n : m;
  const index_t yr = (op == Op::NoTrans) ? m : n;
  auto x = Matrix<T>::random(xr, q, seed + 5);
  auto y = Matrix<T>::random(yr, q, seed + 6);
  auto y_ref = Matrix<T>::from_view(y.cview());
  const T alpha = T(static_cast<real_t<T>>(3));
  a.apply(op, alpha, x.cview(), y.view());
  hcham::testing::reference_gemm<T>(op, Op::NoTrans, alpha, dense.cview(),
                                    x.cview(), T{1}, y_ref.view());
  EXPECT_LT(rel_diff<T>(y.cview(), y_ref.cview()), 1e-13)
      << la::to_string(op);
}

TEST(RkMatrix, ApplyAllOpsReal) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_rk_apply<double>(op, 300);
}

TEST(RkMatrix, ApplyAllOpsComplex) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_rk_apply<zdouble>(op, 400);
}

TEST(RkMatrix, ApplyLeftMatchesDense) {
  auto a = random_rk<zdouble>(18, 26, 5, 4);
  auto dense = a.dense();
  auto x = Matrix<zdouble>::random(3, 18, 6);
  auto y = Matrix<zdouble>::random(3, 26, 7);
  auto y_ref = Matrix<zdouble>::from_view(y.cview());
  a.apply_left(zdouble(1, -2), x.cview(), y.view());
  la::gemm(Op::NoTrans, Op::NoTrans, zdouble(1, -2), x.cview(), dense.cview(),
           zdouble(1), y_ref.view());
  EXPECT_LT(rel_diff<zdouble>(y.cview(), y_ref.cview()), 1e-13);
}

TEST(RkMatrix, ZeroRankApplyLeavesTargetUntouched) {
  RkMatrix<double> a(8, 6);
  auto y = Matrix<double>::random(8, 2, 1);
  auto y_left = Matrix<double>::random(2, 6, 2);
  const auto y0 = Matrix<double>::from_view(y.cview());
  const auto y_left0 = Matrix<double>::from_view(y_left.cview());
  a.apply(Op::NoTrans, 1.0, Matrix<double>::random(6, 2, 3).cview(), y.view());
  a.apply_left(1.0, Matrix<double>::random(2, 8, 4).cview(), y_left.view());
  EXPECT_EQ(rel_diff<double>(y.cview(), y0.cview()), 0.0);
  EXPECT_EQ(rel_diff<double>(y_left.cview(), y_left0.cview()), 0.0);
}

TEST(Truncate, ReducesOverestimatedRank) {
  // A rank-3 matrix stored with rank-10 factors must shrink to 3.
  auto exact = rank_r_matrix<double>(20, 15, 3, 7);
  auto compressed = rk::compress_svd<double>(exact.cview(),
                                             TruncationParams{1e-10, -1});
  // Inflate the factors artificially: pad with tiny noise columns.
  Matrix<double> u(20, 10), v(15, 10);
  la::copy<double>(compressed.u().cview(), u.block(0, 0, 20, 3));
  la::copy<double>(compressed.v().cview(), v.block(0, 0, 15, 3));
  for (index_t j = 3; j < 10; ++j)
    for (index_t i = 0; i < 20; ++i) u(i, j) = 1e-14 * static_cast<double>(i);
  RkMatrix<double> a(std::move(u), std::move(v));
  EXPECT_EQ(a.rank(), 10);
  rk::truncate(a, TruncationParams{1e-8, -1});
  EXPECT_EQ(a.rank(), 3);
  EXPECT_LT(rel_diff<double>(a.dense().cview(), exact.cview()), 1e-8);
}

TEST(Truncate, RespectsMaxRankCap) {
  auto a = random_rk<double>(30, 30, 12, 11);
  auto exact = a.dense();
  rk::truncate(a, TruncationParams{0.0, 5});
  EXPECT_LE(a.rank(), 5);
  // Best rank-5 approximation error equals the tail singular values.
  auto svd = la::svd<double>(exact.cview());
  double tail = 0;
  for (std::size_t i = 5; i < svd.sigma.size(); ++i)
    tail += svd.sigma[i] * svd.sigma[i];
  Matrix<double> diff = a.dense();
  la::axpy(-1.0, exact.cview(), diff.view());
  EXPECT_NEAR(la::norm_fro(diff.cview()), std::sqrt(tail),
              1e-8 * la::norm_fro(exact.cview()));
}

TEST(Truncate, ZeroRankStaysZero) {
  RkMatrix<double> a(6, 6);
  EXPECT_EQ(rk::truncate(a, TruncationParams{1e-6, -1}), 0);
  EXPECT_TRUE(a.is_zero());
}

TEST(Truncate, EverythingBelowToleranceBecomesZero) {
  auto a = random_rk<double>(10, 10, 2, 13);
  // eps > 1 relative: even sigma_0 survives (strict >). Use the cap
  // instead: max_rank = 0 forces exact zero.
  rk::truncate(a, TruncationParams{1e-6, 0});
  EXPECT_TRUE(a.is_zero());
}

TEST(Truncate, ComplexFactorization) {
  auto a = random_rk<zdouble>(18, 12, 6, 17);
  auto exact = a.dense();
  rk::truncate(a, TruncationParams{1e-12, -1});
  EXPECT_LE(a.rank(), 6);
  EXPECT_LT(rel_diff<zdouble>(a.dense().cview(), exact.cview()), 1e-11);
}

TEST(RoundedAdd, MatchesDenseAddition) {
  auto a = random_rk<double>(16, 12, 3, 21);
  auto b = random_rk<double>(16, 12, 4, 23);
  Matrix<double> expected = a.dense();
  la::axpy(-2.5, b.dense().cview(), expected.view());
  rk::rounded_add(a, -2.5, b, TruncationParams{1e-12, -1});
  EXPECT_LE(a.rank(), 7);
  EXPECT_LT(rel_diff<double>(a.dense().cview(), expected.cview()), 1e-11);
}

TEST(RoundedAdd, ComplexAlpha) {
  auto a = random_rk<zdouble>(9, 11, 2, 31);
  auto b = random_rk<zdouble>(9, 11, 2, 33);
  Matrix<zdouble> expected = a.dense();
  la::axpy(zdouble(0, 1), b.dense().cview(), expected.view());
  rk::rounded_add(a, zdouble(0, 1), b, TruncationParams{1e-12, -1});
  EXPECT_LT(rel_diff<zdouble>(a.dense().cview(), expected.cview()), 1e-11);
}

TEST(RoundedAdd, IntoZeroMatrix) {
  RkMatrix<double> c(14, 10);
  auto b = random_rk<double>(14, 10, 3, 41);
  rk::rounded_add(c, 1.0, b, TruncationParams{1e-12, -1});
  EXPECT_LT(rel_diff<double>(c.dense().cview(), b.dense().cview()), 1e-12);
}

TEST(RoundedAdd, CancellationLeavesNegligibleResidual) {
  // A - A: the result must be numerically zero. Note the truncation
  // criterion is RELATIVE to the residual's own largest singular value, so
  // the rank need not collapse to 0 - but the magnitude must vanish.
  auto a = random_rk<double>(12, 12, 3, 51);
  RkMatrix<double> c(12, 12);
  rk::rounded_add(c, 1.0, a, TruncationParams{1e-12, -1});
  rk::rounded_add(c, -1.0, a, TruncationParams{1e-10, -1});
  EXPECT_LE(c.rank(), 6);
  EXPECT_LT(la::norm_fro(c.dense().cview()),
            1e-12 * la::norm_fro(a.dense().cview()));
}

TEST(RoundedAdd, ShapeMismatchThrows) {
  RkMatrix<double> c(5, 5);
  auto b = random_rk<double>(6, 5, 2, 61);
  EXPECT_THROW(rk::rounded_add(c, 1.0, b, TruncationParams{}), Error);
}

TEST(CompressSvd, RecoversExactLowRank) {
  auto exact = rank_r_matrix<zdouble>(25, 20, 4, 71);
  auto c = rk::compress_svd<zdouble>(exact.cview(),
                                     TruncationParams{1e-10, -1});
  EXPECT_EQ(c.rank(), 4);
  EXPECT_LT(rel_diff<zdouble>(c.dense().cview(), exact.cview()), 1e-10);
}

TEST(CompressSvd, FullRankInputAtLooseTolerance) {
  auto a = Matrix<double>::random(20, 20, 81);
  auto c = rk::compress_svd<double>(a.cview(), TruncationParams{0.5, -1});
  EXPECT_LT(c.rank(), 20);  // something must be dropped at eps = 0.5
  EXPECT_GT(c.rank(), 0);
}

}  // namespace
}  // namespace hcham
