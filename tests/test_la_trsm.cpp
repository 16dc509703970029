// TRSM correctness: for every side/uplo/op/diag combination, verify that the
// computed X satisfies op(A) X = alpha B (left) or X op(A) = alpha B (right).
#include <gtest/gtest.h>

#include <tuple>

#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::ConstMatrixView;
using la::Diag;
using la::Matrix;
using la::Op;
using la::Side;
using la::Uplo;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

/// Dense triangular matrix with a strong diagonal (well-conditioned).
template <typename T>
Matrix<T> make_triangular(index_t n, Uplo uplo, Diag diag,
                          std::uint64_t seed) {
  auto a = Matrix<T>::random(n, n, seed);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool keep = (uplo == Uplo::Lower) ? (i >= j) : (i <= j);
      if (!keep) a(i, j) = T{};
    }
    a(j, j) += T(static_cast<real_t<T>>(4));
    if (diag == Diag::Unit) a(j, j) = T{1};
  }
  return a;
}

/// Explicit op(A) as a dense matrix (for residual checks).
template <typename T>
Matrix<T> explicit_op(ConstMatrixView<T> a, Op op) {
  if (op == Op::NoTrans) return Matrix<T>::from_view(a);
  Matrix<T> r(a.cols(), a.rows());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      r(j, i) = (op == Op::ConjTrans) ? conj_if(a(i, j)) : a(i, j);
  return r;
}

template <typename T>
void check_trsm(Side side, Uplo uplo, Op op, Diag diag, index_t m, index_t n,
                std::uint64_t seed) {
  const index_t ad = (side == Side::Left) ? m : n;
  auto a = make_triangular<T>(ad, uplo, diag, seed);
  auto b = Matrix<T>::random(m, n, seed + 1);
  auto x = Matrix<T>::from_view(b.cview());
  const T alpha = T(static_cast<real_t<T>>(2));

  la::trsm(side, uplo, op, diag, alpha, a.cview(), x.view());

  // Residual: op(A) X - alpha B (left) or X op(A) - alpha B (right).
  auto opa = explicit_op<T>(a.cview(), op);
  Matrix<T> res(m, n);
  if (side == Side::Left) {
    la::gemm(Op::NoTrans, Op::NoTrans, T{1}, opa.cview(), x.cview(), T{},
             res.view());
  } else {
    la::gemm(Op::NoTrans, Op::NoTrans, T{1}, x.cview(), opa.cview(), T{},
             res.view());
  }
  auto alpha_b = Matrix<T>::from_view(b.cview());
  la::scal(alpha, alpha_b.view());
  EXPECT_LT(rel_diff<T>(res.cview(), alpha_b.cview()), 1e-12)
      << "side=" << (side == Side::Left ? "L" : "R")
      << " uplo=" << (uplo == Uplo::Lower ? "Lo" : "Up")
      << " op=" << la::to_string(op)
      << " diag=" << (diag == Diag::Unit ? "U" : "N");
}

using TrsmParam = std::tuple<Side, Uplo, Op, Diag>;
class TrsmAll : public ::testing::TestWithParam<TrsmParam> {};

TEST_P(TrsmAll, RealDouble) {
  auto [side, uplo, op, diag] = GetParam();
  check_trsm<double>(side, uplo, op, diag, 13, 9, 1000);
  check_trsm<double>(side, uplo, op, diag, 1, 1, 1100);
  check_trsm<double>(side, uplo, op, diag, 24, 17, 1200);
}

TEST_P(TrsmAll, ComplexDouble) {
  auto [side, uplo, op, diag] = GetParam();
  check_trsm<zdouble>(side, uplo, op, diag, 11, 6, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmAll,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Op::NoTrans, Op::Trans,
                                         Op::ConjTrans),
                       ::testing::Values(Diag::Unit, Diag::NonUnit)));

// la::trsm recurses on halves of the triangle down to substitution on base
// blocks of at most kRecursionBase rows. Every side/uplo/op/diag
// combination, at sizes on both sides of the base and of the split points
// and at the RHS widths the solves issue, must agree with the scalar
// substitution reference.
template <typename T>
void check_against_reference(Side side, Uplo uplo, Op op, Diag diag,
                             index_t n, index_t width, std::uint64_t seed) {
  // Off-diagonal entries of order 1/n keep every size well conditioned.
  auto a = Matrix<T>::random(n, n, seed);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      a(i, j) *= T(static_cast<real_t<T>>(1.0 / static_cast<double>(n)));
  for (index_t i = 0; i < n; ++i) a(i, i) += T(static_cast<real_t<T>>(2));
  const index_t rows = side == Side::Left ? n : width;
  const index_t cols = side == Side::Left ? width : n;
  auto b = Matrix<T>::random(rows, cols, seed + 1);
  auto x = Matrix<T>::from_view(b.cview());
  la::trsm(side, uplo, op, diag, T{2}, a.cview(), x.view());
  hcham::testing::reference_trsm(side, uplo, op, diag, T{2}, a.cview(),
                                 b.view());
  EXPECT_LT(rel_diff<T>(x.cview(), b.cview()), 1e-13)
      << "n=" << n << " width=" << width;
}

class TrsmRecursionBoundary : public ::testing::TestWithParam<TrsmParam> {};

TEST_P(TrsmRecursionBoundary, MatchesSubstitutionReference) {
  auto [side, uplo, op, diag] = GetParam();
  const index_t base = la::kRecursionBase;
  for (index_t n : {index_t{1}, index_t{7}, index_t{8}, index_t{9}, base - 1,
                    base, base + 1, index_t{63}, index_t{64}, index_t{65},
                    index_t{129}, index_t{257}})
    for (index_t width : {1, 3, 4, 6, 32, 65}) {
      const auto seed = static_cast<std::uint64_t>(4000 + 7 * n + width);
      check_against_reference<double>(side, uplo, op, diag, n, width, seed);
      check_against_reference<zdouble>(side, uplo, op, diag, n, width, seed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmRecursionBoundary,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Op::NoTrans, Op::Trans,
                                         Op::ConjTrans),
                       ::testing::Values(Diag::Unit, Diag::NonUnit)));

TEST(Trsm, PaperAlgorithm1Kernels) {
  // The two TRSM flavors used by the tiled LU (Algorithm 1, lines 4 and 7).
  check_trsm<double>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, 32, 32,
                     3000);
  check_trsm<double>(Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit, 32,
                     32, 3100);
}

TEST(Trsm, TrsvSolvesSingleVector) {
  auto a = make_triangular<double>(10, Uplo::Lower, Diag::NonUnit, 42);
  auto b = Matrix<double>::random(10, 1, 43);
  auto x = Matrix<double>::from_view(b.cview());
  la::trsv(Uplo::Lower, Op::NoTrans, Diag::NonUnit, a.cview(), x.data());
  Matrix<double> res(10, 1);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, a.cview(), x.cview(), 0.0,
           res.view());
  EXPECT_LT(rel_diff<double>(res.cview(), b.cview()), 1e-12);
}

TEST(Trsm, NonSquareAThrows) {
  Matrix<double> a(3, 4), b(3, 2);
  EXPECT_THROW(la::trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                        1.0, a.cview(), b.view()),
               Error);
}

TEST(Trsm, MismatchedBThrows) {
  Matrix<double> a(4, 4), b(3, 2);
  EXPECT_THROW(la::trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                        1.0, a.cview(), b.view()),
               Error);
}

}  // namespace
}  // namespace hcham
