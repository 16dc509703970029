// Triangular solve with multiple right-hand sides:
//   Left : solve op(A) * X = alpha * B,  A is m x m, B is m x n
//   Right: solve X * op(A) = alpha * B,  A is n x n, B is m x n
// X overwrites B. All side/uplo/op/diag combinations are supported; the
// tiled H-LU uses (Left, Lower, NoTrans, Unit) and (Right, Upper, NoTrans,
// NonUnit), matching lines 4 and 7 of the paper's Algorithm 1.
//
// Every size takes one recursive path: the triangle splits at about half
// (rounded to the GEMM register tile height), the coupling block goes
// through la::gemm, and substitution runs only on base blocks of at most
// kRecursionBase rows. GETRF and POTRF recurse the same way and share the
// base size.
#pragma once

#include <algorithm>
#include <type_traits>

#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/gemm.hpp"
#include "la/view.hpp"

namespace hcham::la {

/// Largest triangle (TRSM) or panel width (GETRF, POTRF) the recursions
/// hand to their substitution / unblocked base loops.
inline constexpr index_t kRecursionBase = 16;

namespace detail {

/// Substitution on a base block of the left solve. B is solved one vector
/// of right-hand sides at a time, held in registers as split real and
/// imaginary parts, so every update is a vector FMA across columns.
template <typename T>
void trsm_left_base(Uplo uplo, Op op, Diag diag, ConstMatrixView<T> a,
                    MatrixView<T> b) {
  using R = real_t<T>;
  typedef R V __attribute__((vector_size(kVecBytes)));
  constexpr index_t jb = kVecBytes / sizeof(R);
  constexpr int W = is_complex_v<T> ? 2 : 1;
  const index_t m = b.rows();
  const index_t n = b.cols();
  const bool unit = (diag == Diag::Unit);
  const bool lower = (op == Op::NoTrans) == (uplo == Uplo::Lower);
  const auto opa = Strided<T>::of(a, op);
  for (index_t j0 = 0; j0 < n; j0 += jb) {
    const index_t w = std::min(jb, n - j0);
    V x[W][kRecursionBase] = {};  // lane j of x[.][i]: B(i, j0 + j)
    for (index_t j = 0; j < w; ++j)
      for (index_t i = 0; i < m; ++i) {
        const T v = b(i, j0 + j);
        x[0][i][j] = scalar_traits<T>::real(v);
        if constexpr (W == 2) x[1][i][j] = v.imag();
      }
    // Column k of op(A) eliminates x[k] from the rows [lo, hi).
    const auto eliminate = [&](index_t k, index_t lo, index_t hi) {
      if (!unit) {
        const T d = opa.at(k, k);
        if constexpr (W == 2) {
          const R den = d.real() * d.real() + d.imag() * d.imag();
          const V xr = x[0][k], xi = x[1][k];
          x[0][k] = (xr * d.real() + xi * d.imag()) / den;
          x[1][k] = (xi * d.real() - xr * d.imag()) / den;
        } else {
          x[0][k] /= d;
        }
      }
      for (index_t i = lo; i < hi; ++i) {
        const T mik = opa.at(i, k);
        if constexpr (W == 2) {
          x[0][i] -= mik.real() * x[0][k] - mik.imag() * x[1][k];
          x[1][i] -= mik.real() * x[1][k] + mik.imag() * x[0][k];
        } else {
          x[0][i] -= mik * x[0][k];
        }
      }
    };
    if (lower) {
      for (index_t k = 0; k < m; ++k) eliminate(k, k + 1, m);
    } else {
      for (index_t k = m - 1; k >= 0; --k) eliminate(k, 0, k);
    }
    for (index_t j = 0; j < w; ++j)
      for (index_t i = 0; i < m; ++i) {
        if constexpr (W == 2) {
          b(i, j0 + j) = T(x[0][i][j], x[1][i][j]);
        } else {
          b(i, j0 + j) = x[0][i][j];
        }
      }
  }
}

/// Substitution on a base block of the right solve.
template <typename T>
void trsm_right_base(Uplo uplo, Op op, Diag diag, ConstMatrixView<T> a,
                     MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const bool unit = (diag == Diag::Unit);

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

/// Split point of the TRSM/GETRF/POTRF recursions over n >= 2 rows or
/// columns: about half, rounded down to the register tile height when that
/// leaves a tile, so the coupling GEMMs fill whole tiles.
template <typename T>
index_t recursion_split(index_t n) {
  const index_t half = n / 2;
  const index_t rounded = half - half % GemmMicroShape<T>::mr;
  return rounded > 0 ? rounded : half;
}

/// Recursive left solve op(A) X = B: split op(A) into [M11 0; M21 M22]
/// (or its upper mirror), solve one half, push its product with the
/// off-diagonal block through gemm, solve the other half.
template <typename T>
void trsm_left_rec(Uplo uplo, Op op, Diag diag, ConstMatrixView<T> a,
                   MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (m <= kRecursionBase) return trsm_left_base(uplo, op, diag, a, b);
  const index_t m1 = recursion_split<T>(m);
  const index_t m2 = m - m1;
  // op(A) is lower-triangular iff the op preserves the stored triangle.
  const bool m_lower = (op == Op::NoTrans) == (uplo == Uplo::Lower);
  const auto a11 = a.block(0, 0, m1, m1);
  const auto a22 = a.block(m1, m1, m2, m2);
  MatrixView<T> b1 = b.block(0, 0, m1, n);
  MatrixView<T> b2 = b.block(m1, 0, m2, n);
  if (m_lower) {  // M21 = op(A)(m1:, :m1)
    trsm_left_rec(uplo, op, diag, a11, b1);
    gemm(op, Op::NoTrans, T{-1},
         op == Op::NoTrans ? a.block(m1, 0, m2, m1) : a.block(0, m1, m1, m2),
         ConstMatrixView<T>(b1), T{1}, b2);
    trsm_left_rec(uplo, op, diag, a22, b2);
  } else {  // M12 = op(A)(:m1, m1:)
    trsm_left_rec(uplo, op, diag, a22, b2);
    gemm(op, Op::NoTrans, T{-1},
         op == Op::NoTrans ? a.block(0, m1, m1, m2) : a.block(m1, 0, m2, m1),
         ConstMatrixView<T>(b2), T{1}, b1);
    trsm_left_rec(uplo, op, diag, a11, b1);
  }
}

/// Recursive right solve X op(A) = B, mirroring trsm_left_rec on the
/// columns of B.
template <typename T>
void trsm_right_rec(Uplo uplo, Op op, Diag diag, ConstMatrixView<T> a,
                    MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (n <= kRecursionBase) return trsm_right_base(uplo, op, diag, a, b);
  const index_t n1 = recursion_split<T>(n);
  const index_t n2 = n - n1;
  const bool m_lower = (op == Op::NoTrans) == (uplo == Uplo::Lower);
  const auto a11 = a.block(0, 0, n1, n1);
  const auto a22 = a.block(n1, n1, n2, n2);
  MatrixView<T> b1 = b.block(0, 0, m, n1);
  MatrixView<T> b2 = b.block(0, n1, m, n2);
  if (m_lower) {  // X1 M11 + X2 M21 = B1: X2 first
    trsm_right_rec(uplo, op, diag, a22, b2);
    gemm(Op::NoTrans, op, T{-1}, ConstMatrixView<T>(b2),
         op == Op::NoTrans ? a.block(n1, 0, n2, n1) : a.block(0, n1, n1, n2),
         T{1}, b1);
    trsm_right_rec(uplo, op, diag, a11, b1);
  } else {  // X1 M12 + X2 M22 = B2: X1 first
    trsm_right_rec(uplo, op, diag, a11, b1);
    gemm(Op::NoTrans, op, T{-1}, ConstMatrixView<T>(b1),
         op == Op::NoTrans ? a.block(0, n1, n1, n2) : a.block(n1, 0, n2, n1),
         T{1}, b2);
    trsm_right_rec(uplo, op, diag, a22, b2);
  }
}

}  // namespace detail

template <typename T>
void trsm(Side side, Uplo uplo, Op op, Diag diag, T alpha,
          std::type_identity_t<ConstMatrixView<T>> a, MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == a.cols());
  HCHAM_CHECK(a.rows() == (side == Side::Left ? b.rows() : b.cols()));
  if (alpha != T{1}) scal(alpha, b);
  if (side == Side::Left) {
    detail::trsm_left_rec(uplo, op, diag, a, b);
  } else {
    detail::trsm_right_rec(uplo, op, diag, a, b);
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
