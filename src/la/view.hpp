// Non-owning column-major matrix views.
//
// All dense kernels in src/la operate on views so that they can address
// sub-blocks of larger matrices (tiles, panels) without copies. Storage is
// column-major with an explicit leading dimension, matching the BLAS/LAPACK
// conventions the paper's stack (MKL) uses.
#pragma once

#include "common/config.hpp"
#include "common/scalar.hpp"

namespace hcham::la {

template <typename T>
class ConstMatrixView;

/// Mutable view of an m x n column-major block with leading dimension ld.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    HCHAM_DCHECK(rows >= 0 && cols >= 0 && ld >= rows);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }
  T* data() const { return data_; }

  T& operator()(index_t i, index_t j) const {
    HCHAM_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * ld_];
  }

  /// Pointer to the top of column j.
  T* col(index_t j) const { return data_ + j * ld_; }

  /// Sub-block view starting at (i, j) of size m x n.
  MatrixView block(index_t i, index_t j, index_t m, index_t n) const {
    HCHAM_DCHECK(i >= 0 && j >= 0 && i + m <= rows_ && j + n <= cols_);
    return MatrixView(data_ + i + j * ld_, m, n, ld_);
  }

  void fill(T value) const {
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) (*this)(i, j) = value;
  }

  void set_zero() const { fill(T{}); }

  void set_identity() const {
    set_zero();
    const index_t k = rows_ < cols_ ? rows_ : cols_;
    for (index_t i = 0; i < k; ++i) (*this)(i, i) = T{1};
  }

  bool empty() const { return rows_ == 0 || cols_ == 0; }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Read-only view; constructible from a MatrixView.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    HCHAM_DCHECK(rows >= 0 && cols >= 0 && ld >= rows);
  }
  // NOLINTNEXTLINE(google-explicit-constructor): views convert implicitly.
  ConstMatrixView(MatrixView<T> v)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }
  const T* data() const { return data_; }

  const T& operator()(index_t i, index_t j) const {
    HCHAM_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * ld_];
  }

  const T* col(index_t j) const { return data_ + j * ld_; }

  ConstMatrixView block(index_t i, index_t j, index_t m, index_t n) const {
    HCHAM_DCHECK(i >= 0 && j >= 0 && i + m <= rows_ && j + n <= cols_);
    return ConstMatrixView(data_ + i + j * ld_, m, n, ld_);
  }

  bool empty() const { return rows_ == 0 || cols_ == 0; }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Copy src into dst (shapes must match).
template <typename T>
void copy(ConstMatrixView<T> src, MatrixView<T> dst) {
  HCHAM_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  for (index_t j = 0; j < src.cols(); ++j)
    for (index_t i = 0; i < src.rows(); ++i) dst(i, j) = src(i, j);
}

// Single-column movement between views (leading dimension >= rows, so
// columns of different views never interleave) and contiguous buffers.
// Shared by the iterative-refinement sweeps and the serve-layer panel
// packing that gathers request columns into one multi-RHS block.

/// dst[0..rows) = src(:, col).
template <typename T>
void pack_column(ConstMatrixView<T> src, index_t col, T* dst) {
  HCHAM_DCHECK(col >= 0 && col < src.cols());
  const T* s = src.col(col);
  for (index_t i = 0; i < src.rows(); ++i) dst[i] = s[i];
}

/// dst(:, col) = src[0..rows).
template <typename T>
void unpack_column(const T* src, MatrixView<T> dst, index_t col) {
  HCHAM_DCHECK(col >= 0 && col < dst.cols());
  T* d = dst.col(col);
  for (index_t i = 0; i < dst.rows(); ++i) d[i] = src[i];
}

/// dst(:, dcol) = src(:, scol) between two equal-height views.
template <typename T>
void copy_column(ConstMatrixView<T> src, index_t scol, MatrixView<T> dst,
                 index_t dcol) {
  HCHAM_CHECK(src.rows() == dst.rows());
  pack_column(src, scol, dst.col(dcol));
}

}  // namespace hcham::la
