// Cholesky factorization (xPOTRF, lower variant): A = L * L^H for
// Hermitian positive-definite A. Used by the symmetric solver path (the
// real 1/d BEM kernel is positive definite). Recursive formulation whose
// coupling blocks go through la::trsm and la::gemm; info follows LAPACK
// (k > 0: leading minor k not positive).
#pragma once

#include <cmath>

#include "common/scalar.hpp"
#include "la/gemm.hpp"
#include "la/trsm.hpp"
#include "la/view.hpp"

namespace hcham::la {

namespace detail {

template <typename T>
int potrf_panel(MatrixView<T> a) {
  using R = real_t<T>;
  const index_t n = a.rows();
  for (index_t k = 0; k < n; ++k) {
    const R akk = scalar_traits<T>::real(a(k, k));
    if (!(akk > R{})) return static_cast<int>(k) + 1;
    const R lkk = std::sqrt(akk);
    a(k, k) = T(lkk);
    T* ak = a.col(k);
    for (index_t i = k + 1; i < n; ++i) ak[i] /= T(lkk);
    for (index_t j = k + 1; j < n; ++j) {
      const T ajk = conj_if(a(j, k));
      if (ajk == T{}) continue;
      T* aj = a.col(j);
      for (index_t i = j; i < n; ++i) aj[i] -= ak[i] * ajk;
    }
  }
  return 0;
}

/// A22 -= A21 * A21^H on the lower triangle of A22 only: the diagonal
/// halves recurse and the block below them is one gemm.
template <typename T>
void herk_lower(ConstMatrixView<T> a21, MatrixView<T> a22) {
  const index_t n = a22.rows();
  const index_t k = a21.cols();
  if (n <= kRecursionBase) {  // full product of the block, lower half kept
    T buf[kRecursionBase * kRecursionBase];
    MatrixView<T> full(buf, n, n, n);
    gemm(Op::NoTrans, Op::ConjTrans, T{-1}, a21, a21, T{}, full);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < n; ++i) a22(i, j) += full(i, j);
    return;
  }
  const index_t n1 = recursion_split<T>(n);
  herk_lower(a21.block(0, 0, n1, k), a22.block(0, 0, n1, n1));
  gemm(Op::NoTrans, Op::ConjTrans, T{-1}, a21.block(n1, 0, n - n1, k),
       a21.block(0, 0, n1, k), T{1}, a22.block(n1, 0, n - n1, n1));
  herk_lower(a21.block(n1, 0, n - n1, k), a22.block(n1, n1, n - n1, n - n1));
}

}  // namespace detail

/// Recursive lower Cholesky in place (Gustavson); the strict upper
/// triangle is neither read nor written. The leading half is factored,
/// the block below it solved (TRSM), the trailing half updated on its
/// lower triangle (GEMM) and factored in turn.
template <typename T>
int potrf(MatrixView<T> a) {
  HCHAM_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  if (n <= kRecursionBase) return detail::potrf_panel(a);
  const index_t n1 = detail::recursion_split<T>(n);
  const index_t n2 = n - n1;
  if (const int info = potrf(a.block(0, 0, n1, n1)); info != 0) return info;
  MatrixView<T> a21 = a.block(n1, 0, n2, n1);
  trsm(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit, T{1},
       a.block(0, 0, n1, n1), a21);
  detail::herk_lower<T>(a21, a.block(n1, n1, n2, n2));
  const int info = potrf(a.block(n1, n1, n2, n2));
  return info == 0 ? 0 : info + static_cast<int>(n1);
}

/// Solve A X = B given the lower Cholesky factor (A = L L^H).
template <typename T>
void potrs(std::type_identity_t<ConstMatrixView<T>> l, MatrixView<T> b) {
  trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T{1}, l, b);
  trsm(Side::Left, Uplo::Lower, Op::ConjTrans, Diag::NonUnit, T{1}, l, b);
}

}  // namespace hcham::la
