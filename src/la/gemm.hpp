// General matrix-matrix product: C = alpha * op(A) * op(B) + beta * C.
//
// Both drivers of gemm_blocked.hpp run the same register-tiled
// microkernel: gemm_small reads leaf-sized and narrow operands in place,
// gemm_blocked packs the shapes where packing amortizes.
// gemm_prefers_packed() picks between them by shape alone, with the one
// crossover constant kGemmSmallMax.
#pragma once

#include <type_traits>

#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/gemm_blocked.hpp"
#include "la/view.hpp"

namespace hcham::la {

/// Logical dimensions of op(A).
template <typename T>
inline index_t op_rows(ConstMatrixView<T> a, Op op) {
  return op == Op::NoTrans ? a.rows() : a.cols();
}
template <typename T>
inline index_t op_cols(ConstMatrixView<T> a, Op op) {
  return op == Op::NoTrans ? a.cols() : a.rows();
}

/// C = alpha * op(A) * op(B) + beta * C on the driver its shape prefers.
template <typename T>
void gemm(Op opa, Op opb, T alpha, std::type_identity_t<ConstMatrixView<T>> a,
          std::type_identity_t<ConstMatrixView<T>> b, T beta,
          MatrixView<T> c) {
  if (gemm_prefers_packed<T>(c.rows(), c.cols(), op_cols(a, opa))) {
    gemm_blocked<T>(opa, opb, alpha, a, b, beta, c);
  } else {
    gemm_small<T>(opa, opb, alpha, a, b, beta, c);
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
