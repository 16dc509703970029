// Cholesky factorization (xPOTRF, lower variant): A = L * L^H for
// Hermitian positive-definite A. Used by the symmetric solver path (the
// real 1/d BEM kernel is positive definite). Blocked right-looking
// formulation; info follows LAPACK (k > 0: leading minor k not positive).
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

}  // namespace detail

/// Blocked lower Cholesky in place; the strict upper triangle is ignored.
/// The TRSM panel and the trailing Hermitian GEMM update inherit the packed
/// register-tiled engine; nb defaults to kBlasNb.
template <typename T>
int potrf(MatrixView<T> a, index_t nb = kBlasNb) {
  HCHAM_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  for (index_t k = 0; k < n; k += nb) {
    const index_t jb = std::min(nb, n - k);
    const int info = detail::potrf_panel(a.block(k, k, jb, jb));
    if (info != 0) return info + static_cast<int>(k);
    if (k + jb < n) {
      // Panel below the diagonal: A21 <- A21 * L11^-H.
      MatrixView<T> a21 = a.block(k + jb, k, n - k - jb, jb);
      trsm(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit, T{1},
           a.block(k, k, jb, jb), a21);
      // Trailing Hermitian update: A22 -= A21 * A21^H (lower part).
      MatrixView<T> a22 = a.block(k + jb, k + jb, n - k - jb, n - k - jb);
      gemm(Op::NoTrans, Op::ConjTrans, T{-1}, ConstMatrixView<T>(a21),
           ConstMatrixView<T>(a21), T{1}, a22);
    }
  }
  return 0;
}

/// Solve A X = B given the lower Cholesky factor (A = L L^H).
template <typename T>
void potrs(std::type_identity_t<ConstMatrixView<T>> l, MatrixView<T> b) {
  trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T{1}, l, b);
  trsm(Side::Left, Uplo::Lower, Op::ConjTrans, Diag::NonUnit, T{1}, l, b);
}

}  // namespace hcham::la
