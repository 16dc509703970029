// LU factorization tests: reconstruction P*A = L*U, solves, pivoting
// behaviour, the unpivoted variant, and failure reporting.
#include <gtest/gtest.h>

#include <vector>

#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::ConstMatrixView;
using la::Matrix;
using la::Op;
using hcham::testing::diagonally_dominant;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

/// Reconstruct L * U from a factored square matrix (unit lower assumed).
template <typename T>
Matrix<T> multiply_lu(ConstMatrixView<T> lu) {
  const index_t m = lu.rows();
  const index_t n = lu.cols();
  const index_t k = std::min(m, n);
  Matrix<T> l(m, k), u(k, n);
  for (index_t j = 0; j < k; ++j) {
    l(j, j) = T{1};
    for (index_t i = j + 1; i < m; ++i) l(i, j) = lu(i, j);
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) u(i, j) = lu(i, j);
  Matrix<T> prod(m, n);
  la::gemm(Op::NoTrans, Op::NoTrans, T{1}, l.cview(), u.cview(), T{},
           prod.view());
  return prod;
}

/// Apply the recorded interchanges to a fresh copy of A, giving P*A.
template <typename T>
Matrix<T> permute_rows(ConstMatrixView<T> a, const std::vector<index_t>& ipiv) {
  Matrix<T> pa = Matrix<T>::from_view(a);
  la::laswp(pa.view(), ipiv.data(), 0, static_cast<index_t>(ipiv.size()));
  return pa;
}

template <typename T>
void check_factorization(index_t n, std::uint64_t seed) {
  auto a = Matrix<T>::random(n, n, seed);
  auto lu = Matrix<T>::from_view(a.cview());
  std::vector<index_t> ipiv(static_cast<std::size_t>(n));
  ASSERT_EQ(la::getrf(lu.view(), ipiv.data()), 0);
  auto prod = multiply_lu<T>(lu.cview());
  auto pa = permute_rows<T>(a.cview(), ipiv);
  EXPECT_LT(rel_diff<T>(prod.cview(), pa.cview()), 1e-12) << "n=" << n;
}

TEST(Getrf, ReconstructsRandomRealMatrices) {
  for (index_t n : {1, 2, 5, 17, 64, 65, 130}) {
    check_factorization<double>(n, 100 + static_cast<std::uint64_t>(n));
  }
}

TEST(Getrf, ReconstructsComplexMatrices) {
  for (index_t n : {3, 31, 100}) {
    check_factorization<zdouble>(n, 500 + static_cast<std::uint64_t>(n));
  }
}

TEST(Getrf, RectangularTallAndWide) {
  for (auto [m, n] : {std::pair<index_t, index_t>{40, 24},
                      std::pair<index_t, index_t>{24, 40}}) {
    auto a = Matrix<double>::random(m, n, 77);
    auto lu = Matrix<double>::from_view(a.cview());
    std::vector<index_t> ipiv(static_cast<std::size_t>(std::min(m, n)));
    ASSERT_EQ(la::getrf(lu.view(), ipiv.data()), 0);
    auto prod = multiply_lu<double>(lu.cview());
    auto pa = permute_rows<double>(a.cview(), ipiv);
    EXPECT_LT(rel_diff<double>(prod.cview(), pa.cview()), 1e-12);
  }
}

TEST(Getrf, PivotsOnZeroLeadingEntry) {
  Matrix<double> a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 2.0;
  a(1, 1) = 3.0;
  std::vector<index_t> ipiv(2);
  EXPECT_EQ(la::getrf(a.view(), ipiv.data()), 0);
  EXPECT_EQ(ipiv[0], 1);  // swapped with row 1
}

TEST(Getrf, ReportsExactSingularity) {
  Matrix<double> a(3, 3);  // all zeros
  std::vector<index_t> ipiv(3);
  EXPECT_EQ(la::getrf(a.view(), ipiv.data()), 1);
}

// The recursion must report the first zero pivot by its global 1-based
// step, also when it lies in a half two or more levels down. An exactly
// zero column k stays exactly zero through every update before step k.
TEST(Getrf, ZeroPivotDeepInRecursionKeepsGlobalInfo) {
  const index_t n = 64;
  for (index_t k : {index_t{0}, index_t{5}, index_t{40}, index_t{63}}) {
    auto a = Matrix<double>::random(n, n, 300 + static_cast<std::uint64_t>(k));
    for (index_t i = 0; i < n; ++i) a(i, k) = 0.0;
    std::vector<index_t> ipiv(static_cast<std::size_t>(n));
    EXPECT_EQ(la::getrf(a.view(), ipiv.data()), k + 1) << "k=" << k;
  }
}

/// A = L U with small-integer unit-lower L and upper U whose only zero
/// diagonal entry is U(k, k): elimination without pivoting is exact, so
/// the pivot at step k is exactly zero.
Matrix<double> integer_lu_with_zero_pivot(index_t n, index_t k) {
  Matrix<double> l(n, n), u(n, n), a(n, n);
  for (index_t j = 0; j < n; ++j) {
    l(j, j) = 1.0;
    u(j, j) = j == k ? 0.0 : 1.0;
    for (index_t i = j + 1; i < n; ++i)
      l(i, j) = static_cast<double>((7 * i + 3 * j) % 3 - 1);
    for (index_t i = 0; i < j; ++i)
      u(i, j) = static_cast<double>((5 * i + 2 * j) % 3 - 1);
  }
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, l.cview(), u.cview(), 0.0,
           a.view());
  return a;
}

TEST(GetrfNopiv, ZeroPivotDeepInRecursionKeepsGlobalInfo) {
  const index_t n = 64;
  for (index_t k : {index_t{3}, index_t{17}, index_t{40}, index_t{63}}) {
    auto a = integer_lu_with_zero_pivot(n, k);
    EXPECT_EQ(la::getrf_nopiv(a.view()), k + 1) << "k=" << k;
  }
}

TEST(GetrfNopiv, ReconstructsDiagonallyDominant) {
  for (index_t n : {1, 8, 64, 100}) {
    auto a = diagonally_dominant<double>(n, 900 + static_cast<std::uint64_t>(n));
    auto lu = Matrix<double>::from_view(a.cview());
    ASSERT_EQ(la::getrf_nopiv(lu.view()), 0);
    auto prod = multiply_lu<double>(lu.cview());
    EXPECT_LT(rel_diff<double>(prod.cview(), a.cview()), 1e-12);
  }
}

TEST(GetrfNopiv, ComplexDiagonallyDominant) {
  auto a = diagonally_dominant<zdouble>(50, 1234);
  auto lu = Matrix<zdouble>::from_view(a.cview());
  ASSERT_EQ(la::getrf_nopiv(lu.view()), 0);
  auto prod = multiply_lu<zdouble>(lu.cview());
  EXPECT_LT(rel_diff<zdouble>(prod.cview(), a.cview()), 1e-12);
}

TEST(GetrfNopiv, FailsOnZeroPivot) {
  Matrix<double> a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 2.0;
  a(1, 1) = 3.0;
  EXPECT_EQ(la::getrf_nopiv(a.view()), 1);
}

template <typename T>
void check_solve(Op op, index_t n, index_t nrhs, std::uint64_t seed) {
  auto a = Matrix<T>::random(n, n, seed);
  auto x_true = Matrix<T>::random(n, nrhs, seed + 1);
  Matrix<T> b(n, nrhs);
  la::gemm(op, Op::NoTrans, T{1}, a.cview(), x_true.cview(), T{}, b.view());
  auto lu = Matrix<T>::from_view(a.cview());
  std::vector<index_t> ipiv(static_cast<std::size_t>(n));
  ASSERT_EQ(la::getrf(lu.view(), ipiv.data()), 0);
  la::getrs(op, lu.cview(), ipiv.data(), b.view());
  EXPECT_LT(rel_diff<T>(b.cview(), x_true.cview()), 1e-10)
      << "op=" << la::to_string(op);
}

TEST(Getrs, SolvesAllOpsReal) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_solve<double>(op, 60, 4, 2000);
}

TEST(Getrs, SolvesAllOpsComplex) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_solve<zdouble>(op, 40, 3, 3000);
}

TEST(GetrsNopiv, SolvesAfterUnpivotedFactorization) {
  auto a = diagonally_dominant<double>(48, 4000);
  auto x_true = Matrix<double>::random(48, 2, 4001);
  Matrix<double> b(48, 2);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, a.cview(), x_true.cview(), 0.0,
           b.view());
  auto lu = Matrix<double>::from_view(a.cview());
  ASSERT_EQ(la::getrf_nopiv(lu.view()), 0);
  la::getrs_nopiv(Op::NoTrans, lu.cview(), b.view());
  EXPECT_LT(rel_diff<double>(b.cview(), x_true.cview()), 1e-10);
}

TEST(Gesv, FactorAndSolveDriver) {
  auto a = Matrix<double>::random(30, 30, 5000);
  auto x_true = Matrix<double>::random(30, 1, 5001);
  Matrix<double> b(30, 1);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, a.cview(), x_true.cview(), 0.0,
           b.view());
  EXPECT_EQ(la::gesv(a.view(), b.view()), 0);
  EXPECT_LT(rel_diff<double>(b.cview(), x_true.cview()), 1e-10);
}

TEST(Laswp, RoundTripWithReverse) {
  auto a = Matrix<double>::random(6, 3, 6000);
  auto orig = Matrix<double>::from_view(a.cview());
  std::vector<index_t> ipiv = {3, 4, 2, 5, 4, 5};
  la::laswp(a.view(), ipiv.data(), 0, 6);
  // Undo in reverse order.
  for (index_t k = 5; k >= 0; --k) {
    const index_t p = ipiv[static_cast<std::size_t>(k)];
    if (p != k)
      for (index_t j = 0; j < 3; ++j) std::swap(a(k, j), a(p, j));
  }
  EXPECT_EQ(rel_diff<double>(a.cview(), orig.cview()), 0.0);
}

}  // namespace
}  // namespace hcham
