// Tile descriptor: the analogue of CHAMELEON's CHAM_desc_t + CHAM_tile_t
// (paper Structures 1 and 2).
//
// The matrix is an nt x nt grid of tiles of size nb (the trailing tile may
// be smaller). Each tile carries a `format` switch: a plain dense block
// (the classic CHAMELEON case) or a pointer to an H-matrix built by the
// Tile-H construction (paper Section IV-B). Every tile, and every tile-row
// segment of the solves' right-hand side, owns a runtime data handle, so
// the tiled algorithms can declare accesses and let the engine infer the
// DAG.
#pragma once

#include <memory>
#include <vector>

#include "hmatrix/hmatrix.hpp"
#include "la/matrix.hpp"
#include "runtime/engine.hpp"

namespace hcham::tile {

enum class TileFormat : std::int8_t {
  Full,  ///< dense block stored in `full`
  HMat,  ///< hierarchical block stored in `h`
};

/// One tile of the descriptor (CHAM_tile_t).
template <typename T>
struct Tile {
  TileFormat format = TileFormat::Full;
  index_t m = 0;
  index_t n = 0;
  la::Matrix<T> full;                   ///< payload when format == Full
  std::unique_ptr<hmat::HMatrix<T>> h;  ///< payload when format == HMat

  index_t stored_elements() const {
    return format == TileFormat::Full ? m * n
                                      : (h ? h->stored_elements() : 0);
  }
};

/// The tile grid (CHAM_desc_t): shapes, tiles, and data handles.
template <typename T>
class TileDesc {
 public:
  /// Create an empty m x n descriptor with tile size nb; registers one
  /// runtime handle per tile and one per RHS row segment in `engine`,
  /// which every task on these tiles must be submitted to.
  TileDesc(rt::Engine& engine, index_t m, index_t n, index_t nb)
      : engine_(&engine), m_(m), n_(n), nb_(nb), mt_(ceil_div(m, nb)),
        nt_(ceil_div(n, nb)) {
    HCHAM_CHECK(m >= 0 && n >= 0 && nb >= 1);
    tiles_.resize(static_cast<std::size_t>(mt_ * nt_));
    handles_.reserve(tiles_.size());
    for (index_t i = 0; i < mt_; ++i) {
      for (index_t j = 0; j < nt_; ++j) {
        Tile<T>& t = tile(i, j);
        t.m = tile_rows(i);
        t.n = tile_cols(j);
        handles_.push_back(engine.register_data(
            "tile(" + std::to_string(i) + "," + std::to_string(j) + ")"));
      }
    }
    rhs_rows_.reserve(static_cast<std::size_t>(mt_));
    for (index_t k = 0; k < mt_; ++k)
      rhs_rows_.push_back(
          engine.register_data("rhs(" + std::to_string(k) + ")"));
  }

  index_t rows() const { return m_; }
  index_t cols() const { return n_; }
  index_t tile_size() const { return nb_; }
  index_t mt() const { return mt_; }
  index_t nt() const { return nt_; }

  index_t tile_rows(index_t i) const {
    return (i == mt_ - 1) ? m_ - i * nb_ : nb_;
  }
  index_t tile_cols(index_t j) const {
    return (j == nt_ - 1) ? n_ - j * nb_ : nb_;
  }
  index_t row_offset(index_t i) const { return i * nb_; }
  index_t col_offset(index_t j) const { return j * nb_; }

  /// get_blktile: the tile at grid position (i, j).
  Tile<T>& tile(index_t i, index_t j) {
    HCHAM_DCHECK(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return tiles_[static_cast<std::size_t>(i * nt_ + j)];
  }
  const Tile<T>& tile(index_t i, index_t j) const {
    HCHAM_DCHECK(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return tiles_[static_cast<std::size_t>(i * nt_ + j)];
  }

  rt::Handle handle(index_t i, index_t j) const {
    HCHAM_DCHECK(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return handles_[static_cast<std::size_t>(i * nt_ + j)];
  }

  /// The engine the tile handles are registered on.
  rt::Engine& engine() const { return *engine_; }

  /// The handle of the solves' RHS row segment k (rows of tile row k,
  /// every column), registered with the tile handles so a solve registers
  /// none.
  rt::Handle rhs_handle(index_t k) const {
    HCHAM_DCHECK(k >= 0 && k < mt_);
    return rhs_rows_[static_cast<std::size_t>(k)];
  }

  /// Total scalars stored across tiles (compression metric).
  index_t stored_elements() const {
    index_t total = 0;
    for (const Tile<T>& t : tiles_) total += t.stored_elements();
    return total;
  }
  double compression_ratio() const {
    return static_cast<double>(stored_elements()) /
           (static_cast<double>(m_) * static_cast<double>(n_));
  }

  /// Populate all tiles densely from a global matrix.
  void fill_dense(la::ConstMatrixView<T> a) {
    HCHAM_CHECK(a.rows() == m_ && a.cols() == n_);
    for (index_t i = 0; i < mt_; ++i)
      for (index_t j = 0; j < nt_; ++j) {
        Tile<T>& t = tile(i, j);
        t.format = TileFormat::Full;
        t.full.reset(t.m, t.n);
        la::copy(a.block(row_offset(i), col_offset(j), t.m, t.n),
                 t.full.view());
      }
  }

  /// Densify the whole descriptor (tests / small problems only).
  la::Matrix<T> to_dense() const {
    la::Matrix<T> a(m_, n_);
    for (index_t i = 0; i < mt_; ++i)
      for (index_t j = 0; j < nt_; ++j) {
        const Tile<T>& t = tile(i, j);
        auto dst = a.block(row_offset(i), col_offset(j), t.m, t.n);
        if (t.format == TileFormat::Full) {
          la::copy(t.full.cview(), dst);
        } else {
          HCHAM_CHECK(t.h != nullptr);
          dst.set_zero();
          t.h->add_to_dense(T{1}, dst);
        }
      }
    return a;
  }

 private:
  rt::Engine* engine_;
  index_t m_;
  index_t n_;
  index_t nb_;
  index_t mt_;
  index_t nt_;
  std::vector<Tile<T>> tiles_;
  std::vector<rt::Handle> handles_;
  std::vector<rt::Handle> rhs_rows_;
};

}  // namespace hcham::tile
