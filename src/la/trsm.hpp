// Triangular solve with multiple right-hand sides:
//   Left : solve op(A) * X = alpha * B,  A is m x m, B is m x n
//   Right: solve X * op(A) = alpha * B,  A is n x n, B is m x n
// X overwrites B. All side/uplo/op/diag combinations are supported; the
// tiled H-LU uses (Left, Lower, NoTrans, Unit) and (Right, Upper, NoTrans,
// NonUnit), matching lines 4 and 7 of the paper's Algorithm 1.
//
// Large solves are blocked: the triangular matrix is partitioned into
// nb x nb diagonal blocks (kBlasNb), each solved with the scalar
// substitution loops, and the trailing right-hand sides are updated with one
// block-outer-product GEMM per step, so the bulk of the flops runs through
// the packed register-tiled engine.
#pragma once

#include <type_traits>

#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/gemm.hpp"
#include "la/view.hpp"

namespace hcham::la {

namespace detail {

template <typename T>
void trsm_left_unblocked(Uplo uplo, Op op, Diag diag, T alpha,
                         ConstMatrixView<T> a, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const bool unit = (diag == Diag::Unit);
  if (alpha != T{1}) scal(alpha, b);

  if (op == Op::NoTrans) {
    // Column-oriented forward/backward substitution with axpy updates.
    const bool fwd = (uplo == Uplo::Lower);
    for (index_t j = 0; j < n; ++j) {
      T* bj = b.col(j);
      if (fwd) {
        for (index_t k = 0; k < m; ++k) {
          if (!unit) bj[k] /= a(k, k);
          const T xk = bj[k];
          if (xk == T{}) continue;
          const T* ak = a.col(k);
          for (index_t i = k + 1; i < m; ++i) bj[i] -= ak[i] * xk;
        }
      } else {
        for (index_t k = m - 1; k >= 0; --k) {
          if (!unit) bj[k] /= a(k, k);
          const T xk = bj[k];
          if (xk == T{}) continue;
          const T* ak = a.col(k);
          for (index_t i = 0; i < k; ++i) bj[i] -= ak[i] * xk;
        }
      }
    }
    return;
  }

  // op(A) with op in {T, C}: the reduction runs down a column of A, which is
  // contiguous. A lower-triangular transposed system solves backward.
  const bool conj = (op == Op::ConjTrans);
  const bool backward = (uplo == Uplo::Lower);
  for (index_t j = 0; j < n; ++j) {
    T* bj = b.col(j);
    if (backward) {
      for (index_t i = m - 1; i >= 0; --i) {
        const T* ai = a.col(i);
        T acc = bj[i];
        for (index_t l = i + 1; l < m; ++l)
          acc -= (conj ? conj_if(ai[l]) : ai[l]) * bj[l];
        if (!unit) acc /= (conj ? conj_if(ai[i]) : ai[i]);
        bj[i] = acc;
      }
    } else {
      for (index_t i = 0; i < m; ++i) {
        const T* ai = a.col(i);
        T acc = bj[i];
        for (index_t l = 0; l < i; ++l)
          acc -= (conj ? conj_if(ai[l]) : ai[l]) * bj[l];
        if (!unit) acc /= (conj ? conj_if(ai[i]) : ai[i]);
        bj[i] = acc;
      }
    }
  }
}

template <typename T>
void trsm_right_unblocked(Uplo uplo, Op op, Diag diag, T alpha,
                          ConstMatrixView<T> a, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const bool unit = (diag == Diag::Unit);
  if (alpha != T{1}) scal(alpha, b);

  // Solve X * M = B with M = op(A). Element access into M:
  auto mat = [&](index_t l, index_t k) -> T {
    switch (op) {
      case Op::NoTrans: return a(l, k);
      case Op::Trans: return a(k, l);
      case Op::ConjTrans: return conj_if(a(k, l));
    }
    return T{};
  };
  // M lower-triangular -> columns depend on later columns (process
  // right-to-left); upper-triangular -> left-to-right.
  const bool m_lower =
      (op == Op::NoTrans) ? (uplo == Uplo::Lower) : (uplo == Uplo::Upper);

  auto process_col = [&](index_t k) {
    T* bk = b.col(k);
    const index_t lo = m_lower ? k + 1 : 0;
    const index_t hi = m_lower ? n : k;
    for (index_t l = lo; l < hi; ++l) {
      const T mlk = mat(l, k);
      if (mlk == T{}) continue;
      const T* bl = b.col(l);
      for (index_t i = 0; i < m; ++i) bk[i] -= bl[i] * mlk;
    }
    if (!unit) {
      const T d = mat(k, k);
      for (index_t i = 0; i < m; ++i) bk[i] /= d;
    }
  };

  if (m_lower) {
    for (index_t k = n - 1; k >= 0; --k) process_col(k);
  } else {
    for (index_t k = 0; k < n; ++k) process_col(k);
  }
}

/// Blocked left solve: partition op(A) into nb x nb diagonal blocks, solve
/// each with the substitution loops, and push the block-outer-product update
/// of the remaining rows of B through gemm (right-looking).
template <typename T>
void trsm_left_blocked(Uplo uplo, Op op, Diag diag, ConstMatrixView<T> a,
                       MatrixView<T> b, index_t nb) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  // M = op(A) is lower-triangular iff the op preserves the stored triangle.
  const bool m_lower = (op == Op::NoTrans) == (uplo == Uplo::Lower);
  const index_t nblocks = ceil_div(m, nb);
  for (index_t bi = 0; bi < nblocks; ++bi) {
    // Lower-triangular M solves forward, upper-triangular backward.
    const index_t kblk = m_lower ? bi : nblocks - 1 - bi;
    const index_t k0 = kblk * nb;
    const index_t kb = std::min(nb, m - k0);
    trsm_left_unblocked(uplo, op, diag, T{1}, a.block(k0, k0, kb, kb),
                        b.block(k0, 0, kb, n));
    // Rows of B still to be solved: below the block for lower M, above it
    // for upper M. B_rest -= M(rest, k) * X_k in a single gemm.
    if (m_lower && k0 + kb < m) {
      const index_t r0 = k0 + kb;
      const index_t rm = m - r0;
      ConstMatrixView<T> mk = (op == Op::NoTrans) ? a.block(r0, k0, rm, kb)
                                                  : a.block(k0, r0, kb, rm);
      gemm(op, Op::NoTrans, T{-1}, mk,
           ConstMatrixView<T>(b.block(k0, 0, kb, n)), T{1},
           b.block(r0, 0, rm, n));
    } else if (!m_lower && k0 > 0) {
      ConstMatrixView<T> mk = (op == Op::NoTrans) ? a.block(0, k0, k0, kb)
                                                  : a.block(k0, 0, kb, k0);
      gemm(op, Op::NoTrans, T{-1}, mk,
           ConstMatrixView<T>(b.block(k0, 0, kb, n)), T{1},
           b.block(0, 0, k0, n));
    }
  }
}

/// Blocked right solve: X * op(A) = B, processed by block columns of X with
/// one gemm update of the not-yet-solved columns per diagonal block.
template <typename T>
void trsm_right_blocked(Uplo uplo, Op op, Diag diag, ConstMatrixView<T> a,
                        MatrixView<T> b, index_t nb) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const bool m_lower = (op == Op::NoTrans) == (uplo == Uplo::Lower);
  const index_t nblocks = ceil_div(n, nb);
  for (index_t bi = 0; bi < nblocks; ++bi) {
    // Lower-triangular M: columns depend on later ones -> right-to-left.
    const index_t kblk = m_lower ? nblocks - 1 - bi : bi;
    const index_t k0 = kblk * nb;
    const index_t kb = std::min(nb, n - k0);
    trsm_right_unblocked(uplo, op, diag, T{1}, a.block(k0, k0, kb, kb),
                         b.block(0, k0, m, kb));
    // Columns of B still to be solved: left of the block for lower M,
    // right of it for upper M. B_rest -= X_k * M(k, rest).
    if (m_lower && k0 > 0) {
      ConstMatrixView<T> mk = (op == Op::NoTrans) ? a.block(k0, 0, kb, k0)
                                                  : a.block(0, k0, k0, kb);
      gemm(Op::NoTrans, op, T{-1}, ConstMatrixView<T>(b.block(0, k0, m, kb)),
           mk, T{1}, b.block(0, 0, m, k0));
    } else if (!m_lower && k0 + kb < n) {
      const index_t r0 = k0 + kb;
      const index_t rn = n - r0;
      ConstMatrixView<T> mk = (op == Op::NoTrans) ? a.block(k0, r0, kb, rn)
                                                  : a.block(r0, k0, rn, kb);
      gemm(Op::NoTrans, op, T{-1}, ConstMatrixView<T>(b.block(0, k0, m, kb)),
           mk, T{1}, b.block(0, r0, m, rn));
    }
  }
}

}  // namespace detail

template <typename T>
void trsm(Side side, Uplo uplo, Op op, Diag diag, T alpha,
          std::type_identity_t<ConstMatrixView<T>> a, MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == a.cols());
  constexpr index_t nb = kBlasNb;
  if (side == Side::Left) {
    HCHAM_CHECK(a.rows() == b.rows());
    if (a.rows() > nb && b.cols() >= 4) {
      if (alpha != T{1}) scal(alpha, b);
      detail::trsm_left_blocked(uplo, op, diag, a, b, nb);
    } else {
      detail::trsm_left_unblocked(uplo, op, diag, alpha, a, b);
    }
  } else {
    HCHAM_CHECK(a.rows() == b.cols());
    if (a.rows() > nb && b.rows() >= 4) {
      if (alpha != T{1}) scal(alpha, b);
      detail::trsm_right_blocked(uplo, op, diag, a, b, nb);
    } else {
      detail::trsm_right_unblocked(uplo, op, diag, alpha, a, b);
    }
  }
}

/// Triangular solve with a single right-hand side vector (in place).
template <typename T>
void trsv(Uplo uplo, Op op, Diag diag,
          std::type_identity_t<ConstMatrixView<T>> a, T* x) {
  MatrixView<T> b(x, a.rows(), 1, a.rows());
  trsm(Side::Left, uplo, op, diag, T{1}, a, b);
}

}  // namespace hcham::la
