// Tiled algorithms over the task runtime (paper Algorithm 1 and Section
// II-B): tasks are submitted in sequential-task-flow order with access
// modes on tile handles; the engine infers the DAG of Fig. 1.
//
// Priorities follow the classic CHAMELEON scheme: the critical path
// (GETRF) gets the highest priority, panel TRSMs are next, trailing GEMMs
// lowest, each decaying with the iteration so early panels run first.
#pragma once

#include "runtime/engine.hpp"
#include "tile/kernels.hpp"
#include "tile/tile_desc.hpp"

namespace hcham::tile {

/// Tiled right-looking LU (paper Algorithm 1). Submits the whole task
/// graph; call engine.wait_all() to execute. Factorization is unpivoted.
/// `kernels` is copied into every task closure; the default forwards to
/// the free kernels, while core/nested.hpp's set re-submits large H-tile
/// kernels as nested sub-epochs.
template <typename T, typename Kernels = DefaultTileKernels<T>>
void tiled_getrf(rt::Engine& engine, TileDesc<T>& a,
                 const rk::TruncationParams& tp, Kernels kernels = {}) {
  HCHAM_CHECK(a.rows() == a.cols());
  const index_t nt = a.nt();
  for (index_t k = 0; k < nt; ++k) {
    const int base = static_cast<int>(nt - k);
    engine.submit(
        [&a, k, tp, kernels] {
          const int info = kernels.getrf(a.tile(k, k), tp);
          HCHAM_CHECK_MSG(info == 0, "zero pivot in tiled LU");
        },
        {rt::readwrite(a.handle(k, k))}, 3 * base, "getrf");
    for (index_t j = k + 1; j < nt; ++j) {
      engine.submit(
          [&a, k, j, tp, kernels] {
            kernels.trsm_lower(a.tile(k, k), a.tile(k, j), tp);
          },
          {rt::read(a.handle(k, k)), rt::readwrite(a.handle(k, j))},
          2 * base, "trsm");
    }
    for (index_t i = k + 1; i < nt; ++i) {
      engine.submit(
          [&a, k, i, tp, kernels] {
            kernels.trsm_upper(a.tile(k, k), a.tile(i, k), tp);
          },
          {rt::read(a.handle(k, k)), rt::readwrite(a.handle(i, k))},
          2 * base, "trsm");
    }
    for (index_t i = k + 1; i < nt; ++i) {
      for (index_t j = k + 1; j < nt; ++j) {
        engine.submit(
            [&a, k, i, j, tp, kernels] {
              kernels.gemm(T{-1}, a.tile(i, k), a.tile(k, j), a.tile(i, j),
                           tp);
            },
            {rt::read(a.handle(i, k)), rt::read(a.handle(k, j)),
             rt::readwrite(a.handle(i, j))},
            base, "gemm");
      }
    }
  }
}

/// Tiled product C = alpha A B + beta C.
template <typename T>
void tiled_gemm(rt::Engine& engine, T alpha, const TileDesc<T>& a,
                const TileDesc<T>& b, T beta, TileDesc<T>& c,
                const rk::TruncationParams& tp) {
  HCHAM_CHECK(a.rows() == c.rows() && b.cols() == c.cols() &&
              a.cols() == b.rows());
  HCHAM_CHECK(a.tile_size() == b.tile_size() &&
              a.tile_size() == c.tile_size());
  for (index_t i = 0; i < c.mt(); ++i) {
    for (index_t j = 0; j < c.nt(); ++j) {
      if (beta != T{1}) {
        engine.submit(
            [&c, i, j, beta] {
              Tile<T>& t = c.tile(i, j);
              HCHAM_CHECK_MSG(t.format == TileFormat::Full,
                              "tiled_gemm scaling supports dense C tiles");
              la::scal(beta, t.full.view());
            },
            {rt::readwrite(c.handle(i, j))}, 1, "scal");
      }
      for (index_t k = 0; k < a.nt(); ++k) {
        engine.submit(
            [&a, &b, &c, i, j, k, alpha, tp] {
              kernel_gemm(alpha, a.tile(i, k), b.tile(k, j), c.tile(i, j),
                          tp);
            },
            {rt::read(a.handle(i, k)), rt::read(b.handle(k, j)),
             rt::readwrite(c.handle(i, j))},
            0, "gemm");
      }
      // Unlike the factorizations, no later kernel reads these C tiles:
      // publish them fully truncated.
      engine.submit([&c, i, j, tp] { kernel_flush(c.tile(i, j), tp); },
                    {rt::readwrite(c.handle(i, j))}, 0, "flush");
    }
  }
}

/// Solve (L U) X = B with the factors from tiled_getrf; B is a dense
/// right-hand-side block split row-wise by the tile grid, each row segment
/// carrying every column, so the graph depends on the tile grid alone.
/// Submits the TRSM/GEMM task graph; trailing updates execute
/// concurrently under engine.wait_all().
template <typename T>
void tiled_getrs(rt::Engine& engine, const TileDesc<T>& a,
                 la::MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == a.cols() && b.rows() == a.rows() && b.cols() >= 1);
  HCHAM_CHECK_MSG(&engine == &a.engine(),
                  "solve submitted to an engine other than the "
                  "descriptor's");
  const index_t nt = a.nt();
  auto segment = [&a, b](index_t k) {
    return b.block(a.row_offset(k), 0, a.tile_rows(k), b.cols());
  };

  // Forward substitution with L (unit lower).
  for (index_t k = 0; k < nt; ++k) {
    engine.submit(
        [&a, segment, k] { kernel_solve_lower(a.tile(k, k), segment(k)); },
        {rt::read(a.handle(k, k)), rt::readwrite(a.rhs_handle(k))}, 2,
        "solve_l");
    for (index_t i = k + 1; i < nt; ++i) {
      engine.submit(
          [&a, segment, i, k] {
            kernel_gemm_rhs<T>(la::Op::NoTrans, T{-1}, a.tile(i, k),
                               segment(k), segment(i));
          },
          {rt::read(a.handle(i, k)), rt::read(a.rhs_handle(k)),
           rt::readwrite(a.rhs_handle(i))},
          1, "gemm_rhs");
    }
  }
  // Backward substitution with U (non-unit upper).
  for (index_t k = nt - 1; k >= 0; --k) {
    engine.submit(
        [&a, segment, k] { kernel_solve_upper(a.tile(k, k), segment(k)); },
        {rt::read(a.handle(k, k)), rt::readwrite(a.rhs_handle(k))}, 2,
        "solve_u");
    for (index_t i = k - 1; i >= 0; --i) {
      engine.submit(
          [&a, segment, i, k] {
            kernel_gemm_rhs<T>(la::Op::NoTrans, T{-1}, a.tile(i, k),
                               segment(k), segment(i));
          },
          {rt::read(a.handle(i, k)), rt::read(a.rhs_handle(k)),
           rt::readwrite(a.rhs_handle(i))},
          1, "gemm_rhs");
    }
  }
}

/// Tiled lower Cholesky (POTRF): the symmetric counterpart of
/// tiled_getrf for Hermitian positive-definite matrices. Only the lower
/// tile triangle is read/written.
template <typename T, typename Kernels = DefaultTileKernels<T>>
void tiled_potrf(rt::Engine& engine, TileDesc<T>& a,
                 const rk::TruncationParams& tp, Kernels kernels = {}) {
  HCHAM_CHECK(a.rows() == a.cols());
  const index_t nt = a.nt();
  for (index_t k = 0; k < nt; ++k) {
    const int base = static_cast<int>(nt - k);
    engine.submit(
        [&a, k, tp, kernels] {
          const int info = kernels.potrf(a.tile(k, k), tp);
          HCHAM_CHECK_MSG(info == 0,
                          "non-positive-definite pivot in tiled Cholesky");
        },
        {rt::readwrite(a.handle(k, k))}, 3 * base, "potrf");
    for (index_t i = k + 1; i < nt; ++i) {
      engine.submit(
          [&a, k, i, tp, kernels] {
            kernels.trsm_lower_right_adjoint(a.tile(k, k), a.tile(i, k), tp);
          },
          {rt::read(a.handle(k, k)), rt::readwrite(a.handle(i, k))},
          2 * base, "trsm");
    }
    for (index_t i = k + 1; i < nt; ++i) {
      for (index_t j = k + 1; j <= i; ++j) {
        // A_ij -= A_ik * A_jk^H (HERK when i == j).
        engine.submit(
            [&a, k, i, j, tp, kernels] {
              kernels.gemm_adjoint_b(T{-1}, a.tile(i, k), a.tile(j, k),
                                     a.tile(i, j), tp);
            },
            {rt::read(a.handle(i, k)), rt::read(a.handle(j, k)),
             rt::readwrite(a.handle(i, j))},
            base, i == j ? "herk" : "gemm");
      }
    }
  }
}

/// Solve (L L^H) X = B with the factors from tiled_potrf; B is split like
/// tiled_getrs's.
template <typename T>
void tiled_potrs(rt::Engine& engine, const TileDesc<T>& a,
                 la::MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == a.cols() && b.rows() == a.rows() && b.cols() >= 1);
  HCHAM_CHECK_MSG(&engine == &a.engine(),
                  "solve submitted to an engine other than the "
                  "descriptor's");
  const index_t nt = a.nt();
  auto segment = [&a, b](index_t k) {
    return b.block(a.row_offset(k), 0, a.tile_rows(k), b.cols());
  };

  // Forward with L (non-unit lower).
  for (index_t k = 0; k < nt; ++k) {
    engine.submit(
        [&a, segment, k] {
          kernel_solve_lower_nonunit(a.tile(k, k), segment(k));
        },
        {rt::read(a.handle(k, k)), rt::readwrite(a.rhs_handle(k))}, 2,
        "solve_l");
    for (index_t i = k + 1; i < nt; ++i) {
      engine.submit(
          [&a, segment, i, k] {
            kernel_gemm_rhs<T>(la::Op::NoTrans, T{-1}, a.tile(i, k),
                               segment(k), segment(i));
          },
          {rt::read(a.handle(i, k)), rt::read(a.rhs_handle(k)),
           rt::readwrite(a.rhs_handle(i))},
          1, "gemm_rhs");
    }
  }
  // Backward with L^H: x_k = L_kk^-H (b_k - sum_{i>k} L_ik^H x_i).
  for (index_t k = nt - 1; k >= 0; --k) {
    for (index_t i = k + 1; i < nt; ++i) {
      engine.submit(
          [&a, segment, i, k] {
            kernel_gemm_rhs<T>(la::Op::ConjTrans, T{-1}, a.tile(i, k),
                               segment(i), segment(k));
          },
          {rt::read(a.handle(i, k)), rt::read(a.rhs_handle(i)),
           rt::readwrite(a.rhs_handle(k))},
          1, "gemm_rhs");
    }
    engine.submit(
        [&a, segment, k] {
          kernel_solve_lower_adjoint(a.tile(k, k), segment(k));
        },
        {rt::read(a.handle(k, k)), rt::readwrite(a.rhs_handle(k))}, 2,
        "solve_lh");
  }
}

}  // namespace hcham::tile
