// LU factorization (xGETRF) with partial pivoting, the unpivoted variant
// used inside H-arithmetic, row-swap application (xLASWP), and the
// corresponding solves (xGETRS).
//
// getrf and getrf_nopiv recurse on halves of the columns (Toledo): the
// coupling blocks go through la::trsm and la::gemm, and only panels of at
// most kRecursionBase columns run the unblocked loops. info follows the
// LAPACK convention (0 = success, k > 0 = exact zero pivot at step k).
#pragma once

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/scalar.hpp"
#include "la/gemm.hpp"
#include "la/trsm.hpp"
#include "la/view.hpp"

namespace hcham::la {

/// Apply the row interchanges recorded in ipiv[k1..k2) to all columns of a.
/// ipiv uses 0-based indices: row k was swapped with row ipiv[k].
template <typename T>
void laswp(MatrixView<T> a, const index_t* ipiv, index_t k1, index_t k2) {
  for (index_t k = k1; k < k2; ++k) {
    const index_t p = ipiv[k];
    if (p == k) continue;
    for (index_t j = 0; j < a.cols(); ++j) std::swap(a(k, j), a(p, j));
  }
}

namespace detail {

/// Unblocked partially-pivoted LU of an m x n panel. Pivot indices are
/// relative to the panel. Returns 0 or the 1-based index of a zero pivot.
template <typename T>
int getrf_panel(MatrixView<T> a, index_t* ipiv) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kmax = m < n ? m : n;
  int info = 0;
  for (index_t k = 0; k < kmax; ++k) {
    // Pivot search down column k.
    index_t p = k;
    real_t<T> best = abs_val(a(k, k));
    for (index_t i = k + 1; i < m; ++i) {
      const real_t<T> v = abs_val(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    ipiv[k] = p;
    if (p != k)
      for (index_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
    const T piv = a(k, k);
    if (piv == T{}) {
      if (info == 0) info = static_cast<int>(k) + 1;
      continue;
    }
    T* ak = a.col(k);
    for (index_t i = k + 1; i < m; ++i) ak[i] /= piv;
    // Rank-1 update of the trailing panel.
    for (index_t j = k + 1; j < n; ++j) {
      const T akj = a(k, j);
      if (akj == T{}) continue;
      T* aj = a.col(j);
      for (index_t i = k + 1; i < m; ++i) aj[i] -= ak[i] * akj;
    }
  }
  return info;
}

/// Unblocked LU without pivoting.
template <typename T>
int getrf_nopiv_panel(MatrixView<T> a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kmax = m < n ? m : n;
  for (index_t k = 0; k < kmax; ++k) {
    const T piv = a(k, k);
    if (piv == T{}) return static_cast<int>(k) + 1;
    T* ak = a.col(k);
    for (index_t i = k + 1; i < m; ++i) ak[i] /= piv;
    for (index_t j = k + 1; j < n; ++j) {
      const T akj = a(k, j);
      if (akj == T{}) continue;
      T* aj = a.col(j);
      for (index_t i = k + 1; i < m; ++i) aj[i] -= ak[i] * akj;
    }
  }
  return 0;
}

}  // namespace detail

/// Recursive LU with partial pivoting (Toledo); ipiv must hold min(m, n)
/// entries. The left half of the columns is factored first, its row
/// exchanges are applied to the right half, which is then solved (TRSM)
/// and updated (GEMM) before its own recursion. Panels of at most
/// kRecursionBase columns run the unblocked loops.
template <typename T>
int getrf(MatrixView<T> a, index_t* ipiv) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kmax = std::min(m, n);
  if (kmax <= kRecursionBase)
    return detail::getrf_panel(a, ipiv);
  const index_t n1 = detail::recursion_split<T>(kmax);
  const index_t n2 = n - n1;
  int info = getrf(a.block(0, 0, m, n1), ipiv);
  MatrixView<T> right = a.block(0, n1, m, n2);
  laswp(right, ipiv, 0, n1);
  trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T{1},
       a.block(0, 0, n1, n1), right.block(0, 0, n1, n2));
  gemm(Op::NoTrans, Op::NoTrans, T{-1}, a.block(n1, 0, m - n1, n1),
       ConstMatrixView<T>(right.block(0, 0, n1, n2)), T{1},
       right.block(n1, 0, m - n1, n2));
  const int info2 = getrf(right.block(n1, 0, m - n1, n2), ipiv + n1);
  if (info == 0 && info2 != 0) info = info2 + static_cast<int>(n1);
  // Pivot indices become row numbers of `a`; the left half follows the
  // second half's exchanges.
  for (index_t i = n1; i < kmax; ++i) ipiv[i] += n1;
  laswp(a.block(0, 0, m, n1), ipiv, n1, kmax);
  return info;
}

/// Recursive LU without pivoting (the variant used at H-matrix leaves,
/// where global pivoting is impossible; see DESIGN.md). Stops at the first
/// zero pivot and returns its 1-based index.
template <typename T>
int getrf_nopiv(MatrixView<T> a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t kmax = std::min(m, n);
  if (kmax <= kRecursionBase)
    return detail::getrf_nopiv_panel(a);
  const index_t n1 = detail::recursion_split<T>(kmax);
  const index_t n2 = n - n1;
  if (const int info = getrf_nopiv(a.block(0, 0, m, n1)); info != 0)
    return info;
  MatrixView<T> right = a.block(0, n1, m, n2);
  trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T{1},
       a.block(0, 0, n1, n1), right.block(0, 0, n1, n2));
  gemm(Op::NoTrans, Op::NoTrans, T{-1}, a.block(n1, 0, m - n1, n1),
       ConstMatrixView<T>(right.block(0, 0, n1, n2)), T{1},
       right.block(n1, 0, m - n1, n2));
  const int info = getrf_nopiv(right.block(n1, 0, m - n1, n2));
  return info == 0 ? 0 : info + static_cast<int>(n1);
}

/// Solve op(A) X = B given the pivoted LU of A.
template <typename T>
void getrs(Op op, std::type_identity_t<ConstMatrixView<T>> lu,
           const index_t* ipiv, MatrixView<T> b) {
  HCHAM_CHECK(lu.rows() == lu.cols());
  const index_t n = lu.rows();
  HCHAM_CHECK(b.rows() == n);
  if (op == Op::NoTrans) {
    laswp(b, ipiv, 0, n);
    trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T{1}, lu, b);
    trsm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T{1}, lu, b);
  } else {
    trsm(Side::Left, Uplo::Upper, op, Diag::NonUnit, T{1}, lu, b);
    trsm(Side::Left, Uplo::Lower, op, Diag::Unit, T{1}, lu, b);
    // Undo the permutation: apply swaps in reverse order.
    for (index_t k = n - 1; k >= 0; --k) {
      const index_t p = ipiv[k];
      if (p == k) continue;
      for (index_t j = 0; j < b.cols(); ++j) std::swap(b(k, j), b(p, j));
    }
  }
}

/// Solve op(A) X = B given the unpivoted LU of A.
template <typename T>
void getrs_nopiv(Op op, std::type_identity_t<ConstMatrixView<T>> lu,
                 MatrixView<T> b) {
  HCHAM_CHECK(lu.rows() == lu.cols() && b.rows() == lu.rows());
  if (op == Op::NoTrans) {
    trsm(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, T{1}, lu, b);
    trsm(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit, T{1}, lu, b);
  } else {
    trsm(Side::Left, Uplo::Upper, op, Diag::NonUnit, T{1}, lu, b);
    trsm(Side::Left, Uplo::Lower, op, Diag::Unit, T{1}, lu, b);
  }
}

/// Convenience driver: factor-and-solve A X = B (A is overwritten).
template <typename T>
int gesv(MatrixView<T> a, MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == a.cols());
  std::vector<index_t> ipiv(static_cast<std::size_t>(a.rows()));
  const int info = getrf(a, ipiv.data());
  if (info != 0) return info;
  getrs(Op::NoTrans, ConstMatrixView<T>(a), ipiv.data(), b);
  return 0;
}

}  // namespace hcham::la
