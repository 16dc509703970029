// Products of an H-matrix with dense matrices/vectors:
//   matmat:      Y = alpha * op(H) * X + beta * Y
//   matmat_left: Y = alpha * X * H + beta * Y
// These are the glue kernels of H-arithmetic: TRSM panel updates, Rk-factor
// propagation in H-GEMM, and matrix-vector products (solve residuals, RHS
// generation) all reduce to them.
//
// The block-tree walk runs each leaf in place, in walk order: a dense leaf
// is one GEMM, an Rk leaf the chained GEMM pair of RkMatrix::apply.
#pragma once

#include "hmatrix/hmatrix.hpp"
#include "la/gemm.hpp"

namespace hcham::hmat {

namespace detail {

/// Y += alpha * op(H) * X.
template <typename T>
void matmat_accumulate(la::Op op, T alpha, const HMatrix<T>& h,
                       la::ConstMatrixView<T> x, la::MatrixView<T> y) {
  const index_t q = x.cols();
  switch (h.kind()) {
    case HMatrix<T>::Kind::Full:
      la::gemm(op, la::Op::NoTrans, alpha, h.full().cview(), x, T{1}, y);
      return;
    case HMatrix<T>::Kind::Rk:
      h.rk().apply(op, alpha, x, y);
      return;
    case HMatrix<T>::Kind::Hierarchical: {
      // Row/col block ranges follow the 2 x 2 child split.
      const index_t r0 = h.child(0, 0).rows();
      const index_t c0 = h.child(0, 0).cols();
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          const HMatrix<T>& ch = h.child(i, j);
          const index_t ro = (i == 0) ? 0 : r0;
          const index_t co = (j == 0) ? 0 : c0;
          if (op == la::Op::NoTrans) {
            matmat_accumulate(op, alpha, ch, x.block(co, 0, ch.cols(), q),
                              y.block(ro, 0, ch.rows(), q));
          } else {
            matmat_accumulate(op, alpha, ch, x.block(ro, 0, ch.rows(), q),
                              y.block(co, 0, ch.cols(), q));
          }
        }
      }
      return;
    }
  }
}

/// Y += alpha * X * H.
template <typename T>
void matmat_left_accumulate(T alpha, la::ConstMatrixView<T> x,
                            const HMatrix<T>& h, la::MatrixView<T> y) {
  const index_t p = x.rows();
  switch (h.kind()) {
    case HMatrix<T>::Kind::Full:
      la::gemm(la::Op::NoTrans, la::Op::NoTrans, alpha, x, h.full().cview(),
               T{1}, y);
      return;
    case HMatrix<T>::Kind::Rk:
      h.rk().apply_left(alpha, x, y);
      return;
    case HMatrix<T>::Kind::Hierarchical: {
      const index_t r0 = h.child(0, 0).rows();
      const index_t c0 = h.child(0, 0).cols();
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) {
          const HMatrix<T>& ch = h.child(i, j);
          matmat_left_accumulate(alpha,
                                 x.block(0, i == 0 ? 0 : r0, p, ch.rows()), ch,
                                 y.block(0, j == 0 ? 0 : c0, p, ch.cols()));
        }
      return;
    }
  }
}

}  // namespace detail

template <typename T>
void matmat(la::Op op, T alpha, const HMatrix<T>& h,
            la::ConstMatrixView<T> x, T beta, la::MatrixView<T> y) {
  const index_t rows = (op == la::Op::NoTrans) ? h.rows() : h.cols();
  const index_t inner = (op == la::Op::NoTrans) ? h.cols() : h.rows();
  HCHAM_CHECK(x.rows() == inner && y.rows() == rows && x.cols() == y.cols());
  la::scal(beta, y);
  if (alpha == T{}) return;
  detail::matmat_accumulate(op, alpha, h, x, y);
}

/// y += alpha * op(H) * x + beta * y on raw vectors.
template <typename T>
void gemv(la::Op op, T alpha, const HMatrix<T>& h, const T* x, T beta,
          T* y) {
  const index_t rows = (op == la::Op::NoTrans) ? h.rows() : h.cols();
  const index_t inner = (op == la::Op::NoTrans) ? h.cols() : h.rows();
  la::ConstMatrixView<T> xv(x, inner, 1, inner > 0 ? inner : 1);
  la::MatrixView<T> yv(y, rows, 1, rows > 0 ? rows : 1);
  matmat(op, alpha, h, xv, beta, yv);
}

template <typename T>
void matmat_left(T alpha, la::ConstMatrixView<T> x, const HMatrix<T>& h,
                 T beta, la::MatrixView<T> y) {
  HCHAM_CHECK(x.cols() == h.rows() && y.cols() == h.cols() &&
              x.rows() == y.rows());
  la::scal(beta, y);
  if (alpha == T{}) return;
  detail::matmat_left_accumulate(alpha, x, h, y);
}

}  // namespace hcham::hmat
