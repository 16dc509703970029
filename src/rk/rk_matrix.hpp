// Low-rank matrix representation: A ~= U * V^H with U (m x k), V (n x k).
//
// This is the "Rk-matrix" building block of H-arithmetic: admissible blocks
// of the block cluster tree are stored in this factored form, and all
// H-kernels (H-GEMM, H-TRSM, H-LU) manipulate the factors directly.
#pragma once

#include <algorithm>
#include <utility>

#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

namespace hcham::rk {

template <typename T>
class RkMatrix {
 public:
  RkMatrix() = default;

  /// Zero matrix of the given shape (rank 0).
  RkMatrix(index_t rows, index_t cols) : rows_(rows), cols_(cols) {}

  /// Adopt factors: A = u * v^H. u is rows x k, v is cols x k.
  RkMatrix(la::Matrix<T> u, la::Matrix<T> v)
      : rows_(u.rows()), cols_(v.rows()), u_(std::move(u)), v_(std::move(v)),
        compressed_rank_(u_.cols()) {
    HCHAM_CHECK(u_.cols() == v_.cols());
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t rank() const { return u_.cols(); }
  bool is_zero() const { return rank() == 0; }

  /// Rank up to which the factors went through the last truncation. Columns
  /// beyond it are pending lazy updates appended by append_factors(); the
  /// represented value U V^H is exact either way — pending-ness only tracks
  /// whether a flush (truncate) would do useful work.
  index_t compressed_rank() const { return compressed_rank_; }
  bool has_pending() const { return rank() > compressed_rank_; }
  void mark_compressed() { compressed_rank_ = rank(); }
  void mark_all_pending() { compressed_rank_ = 0; }

  /// Append alpha * u * v^H as extra factor columns, without truncating:
  /// the lazy-accumulation primitive. u is rows x j, v is cols x j.
  void append_factors(T alpha, la::ConstMatrixView<T> u,
                      la::ConstMatrixView<T> v) {
    HCHAM_CHECK(u.rows() == rows_ && v.rows() == cols_ &&
                u.cols() == v.cols());
    const index_t j = u.cols();
    if (j == 0) return;
    // A default-constructed rank-0 state keeps u_ as 0 x 0; give the factors
    // their proper row counts before growing columns.
    if (u_.rows() != rows_) u_.reset(rows_, 0);
    if (v_.rows() != cols_) v_.reset(cols_, 0);
    const index_t k = u_.cols();
    u_.append_cols(j);
    v_.append_cols(j);
    la::copy(u, u_.block(0, k, rows_, j));
    la::scal(alpha, u_.block(0, k, rows_, j));
    la::copy(v, v_.block(0, k, cols_, j));
  }

  /// Replace the factor columns [from, rank) with the (narrower) pair
  /// nu * nv^H, keeping the leading `from` columns in place. Bookkeeping
  /// for pending-tail compaction: the watermark never rises, so the block
  /// stays pending until a real flush jointly recompresses head and tail.
  void replace_tail(index_t from, la::ConstMatrixView<T> nu,
                    la::ConstMatrixView<T> nv) {
    HCHAM_CHECK(from >= 0 && from <= rank());
    HCHAM_CHECK(nu.rows() == rows_ && nv.rows() == cols_ &&
                nu.cols() == nv.cols());
    const index_t j = nu.cols();
    u_.shrink_cols(from);
    v_.shrink_cols(from);
    u_.append_cols(j);
    v_.append_cols(j);
    la::copy(nu, u_.block(0, from, rows_, j));
    la::copy(nv, v_.block(0, from, cols_, j));
    compressed_rank_ = std::min(compressed_rank_, from);
  }

  la::Matrix<T>& u() { return u_; }
  la::Matrix<T>& v() { return v_; }
  const la::Matrix<T>& u() const { return u_; }
  const la::Matrix<T>& v() const { return v_; }

  /// Number of scalars stored (the H-compression metric).
  index_t stored_elements() const { return (rows_ + cols_) * rank(); }

  /// Replace the factors (shape must be preserved).
  void set_factors(la::Matrix<T> u, la::Matrix<T> v) {
    HCHAM_CHECK(u.rows() == rows_ && v.rows() == cols_ &&
                u.cols() == v.cols());
    u_ = std::move(u);
    v_ = std::move(v);
    compressed_rank_ = u_.cols();
  }

  void set_zero() {
    u_.reset(rows_, 0);
    v_.reset(cols_, 0);
    compressed_rank_ = 0;
  }

  /// Densify: returns U * V^H.
  la::Matrix<T> dense() const {
    la::Matrix<T> d(rows_, cols_);
    add_to(T{1}, d.view());
    return d;
  }

  /// dst += alpha * U * V^H.
  void add_to(T alpha, la::MatrixView<T> dst) const {
    HCHAM_CHECK(dst.rows() == rows_ && dst.cols() == cols_);
    if (is_zero()) return;
    la::gemm(la::Op::NoTrans, la::Op::ConjTrans, alpha, u_.cview(),
             v_.cview(), T{1}, dst);
  }

  /// Y += alpha * op(U V^H) X, for op in {N, T, C}: two chained GEMMs
  /// through a rank x q temporary from the calling thread's arena.
  void apply(la::Op op, T alpha, la::ConstMatrixView<T> x,
             la::MatrixView<T> y) const {
    if (is_zero()) return;
    const index_t k = rank();
    const index_t q = x.cols();
    la::WorkspaceScope ws;
    la::MatrixView<T> tmp = ws.matrix<T>(k, q);
    switch (op) {
      case la::Op::NoTrans:
        // Y += alpha U (V^H X)
        la::gemm(la::Op::ConjTrans, la::Op::NoTrans, T{1}, v_.cview(), x, T{},
                 tmp);
        la::gemm(la::Op::NoTrans, la::Op::NoTrans, alpha, u_.cview(), tmp,
                 T{1}, y);
        return;
      case la::Op::ConjTrans:
        // (U V^H)^H = V U^H: Y += alpha V (U^H X)
        la::gemm(la::Op::ConjTrans, la::Op::NoTrans, T{1}, u_.cview(), x, T{},
                 tmp);
        la::gemm(la::Op::NoTrans, la::Op::NoTrans, alpha, v_.cview(), tmp,
                 T{1}, y);
        return;
      case la::Op::Trans:
        // (U V^H)^T = conj(V) U^T: Y += alpha conj(V) (U^T X)
        la::gemm(la::Op::Trans, la::Op::NoTrans, T{1}, u_.cview(), x, T{},
                 tmp);
        for (index_t c = 0; c < q; ++c)
          for (index_t i = 0; i < cols_; ++i) {
            T acc{};
            for (index_t l = 0; l < k; ++l)
              acc += conj_if(v_(i, l)) * tmp(l, c);
            y(i, c) += alpha * acc;
          }
        return;
    }
  }

  /// Y += alpha * X (U V^H) = alpha (X U) V^H.
  void apply_left(T alpha, la::ConstMatrixView<T> x,
                  la::MatrixView<T> y) const {
    if (is_zero()) return;
    la::WorkspaceScope ws;
    la::MatrixView<T> tmp = ws.matrix<T>(x.rows(), rank());
    la::gemm(la::Op::NoTrans, la::Op::NoTrans, T{1}, x, u_.cview(), T{}, tmp);
    la::gemm(la::Op::NoTrans, la::Op::ConjTrans, alpha, tmp, v_.cview(), T{1},
             y);
  }

  /// y += alpha * op(U V^H) x on raw vectors.
  void gemv(la::Op op, T alpha, const T* x, T* y) const {
    const index_t n = (op == la::Op::NoTrans) ? cols_ : rows_;
    const index_t m = (op == la::Op::NoTrans) ? rows_ : cols_;
    apply(op, alpha, la::ConstMatrixView<T>(x, n, 1, n > 0 ? n : 1),
          la::MatrixView<T>(y, m, 1, m > 0 ? m : 1));
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  la::Matrix<T> u_;  // rows_ x k
  la::Matrix<T> v_;  // cols_ x k
  index_t compressed_rank_ = 0;  // columns <= this passed the last truncate
};

}  // namespace hcham::rk
