// General matrix-matrix product: C = alpha * op(A) * op(B) + beta * C.
//
// Two execution paths share the BLAS semantics:
//  * gemm_reference -- the original axpy/dot-style loops organised for
//    column-major data with a k-blocking; near-zero per-call overhead, used
//    for tiny and extremely skinny products.
//  * gemm_blocked (gemm_blocked.hpp) -- the packed register-tiled engine
//    used for everything large enough to amortise packing.
// `gemm` dispatches between them via gemm_prefers_blocked(); the threshold
// is the constant kGemmMinFlops, measured in bench/kernels_micro.
#pragma once

#include <type_traits>

#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/gemm_blocked.hpp"
#include "la/view.hpp"

namespace hcham::la {

namespace detail {

/// Element accessor honouring the op tag. `a` is the untransposed view;
/// logical element (i, j) of op(A) is returned.
template <typename T>
inline T op_at(ConstMatrixView<T> a, Op op, index_t i, index_t j) {
  switch (op) {
    case Op::NoTrans: return a(i, j);
    case Op::Trans: return a(j, i);
    case Op::ConjTrans: return conj_if(a(j, i));
  }
  return T{};
}

}  // namespace detail

/// Logical dimensions of op(A).
template <typename T>
inline index_t op_rows(ConstMatrixView<T> a, Op op) {
  return op == Op::NoTrans ? a.rows() : a.cols();
}
template <typename T>
inline index_t op_cols(ConstMatrixView<T> a, Op op) {
  return op == Op::NoTrans ? a.cols() : a.rows();
}

/// Reference GEMM: the axpy/dot-style loops. Kept both as the dispatch
/// target for tiny/skinny shapes and as the oracle the blocked engine is
/// tested against.
template <typename T>
void gemm_reference(Op opa, Op opb, T alpha,
                    std::type_identity_t<ConstMatrixView<T>> a,
                    std::type_identity_t<ConstMatrixView<T>> b, T beta,
                    MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = op_cols(a, opa);
  HCHAM_CHECK(op_rows(a, opa) == m);
  HCHAM_CHECK(op_rows(b, opb) == k && op_cols(b, opb) == n);

  detail::scale_inplace(c, beta);
  if (alpha == T{} || m == 0 || n == 0 || k == 0) return;

  if (opa == Op::NoTrans) {
    // C(:, j) += alpha * sum_l A(:, l) * opB(l, j); block over l for cache.
    constexpr index_t kb = 128;
    for (index_t l0 = 0; l0 < k; l0 += kb) {
      const index_t lend = (l0 + kb < k) ? l0 + kb : k;
      for (index_t j = 0; j < n; ++j) {
        T* cj = c.col(j);
        for (index_t l = l0; l < lend; ++l) {
          const T blj = alpha * detail::op_at(b, opb, l, j);
          if (blj == T{}) continue;
          const T* al = a.col(l);
          for (index_t i = 0; i < m; ++i) cj[i] += al[i] * blj;
        }
      }
    }
    return;
  }

  // opa is Trans or ConjTrans: op(A)(i, :) is column i of A, so the inner
  // reduction streams contiguously down A.
  const bool conja = (opa == Op::ConjTrans);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const T* ai = a.col(i);
      T acc{};
      if (opb == Op::NoTrans) {
        const T* bj = b.col(j);
        if (conja) {
          for (index_t l = 0; l < k; ++l) acc += conj_if(ai[l]) * bj[l];
        } else {
          for (index_t l = 0; l < k; ++l) acc += ai[l] * bj[l];
        }
      } else {
        for (index_t l = 0; l < k; ++l) {
          const T av = conja ? conj_if(ai[l]) : ai[l];
          acc += av * detail::op_at(b, opb, l, j);
        }
      }
      c(i, j) += alpha * acc;
    }
  }
}

/// C = alpha * op(A) * op(B) + beta * C, dispatching between the packed
/// register-tiled engine and the reference loops by problem shape.
template <typename T>
void gemm(Op opa, Op opb, T alpha, std::type_identity_t<ConstMatrixView<T>> a,
          std::type_identity_t<ConstMatrixView<T>> b, T beta,
          MatrixView<T> c) {
  const index_t k = op_cols(a, opa);
  if (gemm_prefers_blocked<T>(c.rows(), c.cols(), k)) {
    gemm_blocked<T>(opa, opb, alpha, a, b, beta, c);
  } else {
    gemm_reference<T>(opa, opb, alpha, a, b, beta, c);
  }
}

/// y = alpha * op(A) * x + beta * y (dense matrix-vector product).
template <typename T>
void gemv(Op opa, T alpha, std::type_identity_t<ConstMatrixView<T>> a,
          const T* x, T beta, T* y) {
  const index_t m = op_rows(a, opa);
  const index_t k = op_cols(a, opa);
  if (beta == T{}) {
    for (index_t i = 0; i < m; ++i) y[i] = T{};
  } else if (beta != T{1}) {
    for (index_t i = 0; i < m; ++i) y[i] *= beta;
  }
  if (alpha == T{} || m == 0 || k == 0) return;
  if (opa == Op::NoTrans) {
    for (index_t l = 0; l < k; ++l) {
      const T xl = alpha * x[l];
      if (xl == T{}) continue;
      const T* al = a.col(l);
      for (index_t i = 0; i < m; ++i) y[i] += al[i] * xl;
    }
  } else {
    const bool conja = (opa == Op::ConjTrans);
    for (index_t i = 0; i < m; ++i) {
      const T* ai = a.col(i);
      T acc{};
      for (index_t l = 0; l < k; ++l)
        acc += (conja ? conj_if(ai[l]) : ai[l]) * x[l];
      y[i] += alpha * acc;
    }
  }
}

/// B += alpha * A (element-wise, shapes must match).
template <typename T>
void axpy(T alpha, std::type_identity_t<ConstMatrixView<T>> a, MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) b(i, j) += alpha * a(i, j);
}

/// A *= alpha (element-wise).
template <typename T>
void scal(T alpha, MatrixView<T> a) {
  detail::scale_inplace(a, alpha);
}

}  // namespace hcham::la
