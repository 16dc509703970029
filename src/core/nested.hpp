// Nested tile kernels (DESIGN.md section 11): the Tile-H factorization's
// H-tile kernels re-submitted as nested sub-epochs. Each large H-GETRF /
// H-TRSM / H-GEMM tile task opens an rt::NestedEpoch and expands its own
// recursive H-arithmetic into per-leaf tasks — the exact decomposition
// HluTaskGraph already performs for the fine-grain HMAT baseline — so
// parked pool workers steal into the diagonal-heavy early iterations of
// the coarse tiling instead of idling ("Exploiting Nested Task-Parallelism
// in the H-LU Factorization", PAPERS.md).
//
// Gate and fallback: the NestedEpoch constructor decides the mode from the
// dense-equivalent flop estimate (against rt::kNestedMinFlops), pool
// occupancy, and the worker-context requirement; when it stays inline,
// these kernels skip the decomposition overhead entirely and call the
// plain sequential kernel — bit-identical either way, because the
// fine-grain expansion is bit-identical to the sequential recursion (the
// prop_nested battery pins this down).
#pragma once

#include "core/hlu_tasks.hpp"
#include "runtime/engine.hpp"
#include "tile/kernels.hpp"

namespace hcham::core {

/// Drop-in replacement for tile::DefaultTileKernels that nests H-format
/// kernels. Copied into every tile-task closure: one Engine pointer, so a
/// captured tile task re-runs the gate on replay too.
template <typename T>
struct NestedTileKernels {
  rt::Engine* engine = nullptr;

  /// Dense-equivalent flop estimates feeding the gate. H-arithmetic does
  /// far less work than these cubes, but the gate only needs a monotone
  /// size proxy; rt::kNestedMinFlops is calibrated against them.
  static double cube(index_t n) {
    const double d = static_cast<double>(n);
    return d * d * d;
  }

  int getrf(tile::Tile<T>& a, const rk::TruncationParams& tp) const {
    if (a.format == tile::TileFormat::Full)
      return tile::kernel_getrf(a, tp);
    rt::NestedEpoch ep(*engine, (2.0 / 3.0) * cube(a.h->rows()));
    if (!ep.parallel()) return tile::kernel_getrf(a, tp);
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *a.h, tp);
    g.submit();
    ep.wait();  // rethrows a nested zero-pivot into the parent epoch
    return 0;
  }

  void trsm_lower(const tile::Tile<T>& akk, tile::Tile<T>& akj,
                  const rk::TruncationParams& tp) const {
    if (akk.format == tile::TileFormat::Full) {
      tile::kernel_trsm_lower(akk, akj, tp);
      return;
    }
    rt::NestedEpoch ep(*engine, cube(akk.h->rows()));
    if (!ep.parallel()) {
      tile::kernel_trsm_lower(akk, akj, tp);
      return;
    }
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *akj.h, tp);
    g.submit_trsm_lower(*akk.h, *akj.h);
    ep.wait();
  }

  void trsm_upper(const tile::Tile<T>& akk, tile::Tile<T>& aik,
                  const rk::TruncationParams& tp) const {
    if (akk.format == tile::TileFormat::Full) {
      tile::kernel_trsm_upper(akk, aik, tp);
      return;
    }
    rt::NestedEpoch ep(*engine, cube(akk.h->rows()));
    if (!ep.parallel()) {
      tile::kernel_trsm_upper(akk, aik, tp);
      return;
    }
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *aik.h, tp);
    g.submit_trsm_upper(*akk.h, *aik.h);
    ep.wait();
  }

  void gemm(T alpha, const tile::Tile<T>& a, const tile::Tile<T>& b,
            tile::Tile<T>& c, const rk::TruncationParams& tp) const {
    // The fine-grain expansion hardcodes the trailing update's alpha = -1
    // (as hlu_tasks.hpp does); any other scale falls through.
    if (c.format == tile::TileFormat::Full || alpha != T{-1}) {
      tile::kernel_gemm(alpha, a, b, c, tp);
      return;
    }
    rt::NestedEpoch ep(*engine,
                       2.0 * static_cast<double>(a.h->rows()) *
                           static_cast<double>(a.h->cols()) *
                           static_cast<double>(b.h->cols()));
    if (!ep.parallel()) {
      tile::kernel_gemm(alpha, a, b, c, tp);
      return;
    }
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *c.h, tp);
    g.submit_gemm(*a.h, *b.h, *c.h);
    ep.wait();
  }

  int potrf(tile::Tile<T>& a, const rk::TruncationParams& tp) const {
    if (a.format == tile::TileFormat::Full)
      return tile::kernel_potrf(a, tp);
    rt::NestedEpoch ep(*engine, cube(a.h->rows()) / 3.0);
    if (!ep.parallel()) return tile::kernel_potrf(a, tp);
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *a.h, tp);
    g.submit_cholesky();
    ep.wait();
    return 0;
  }

  void trsm_lower_right_adjoint(const tile::Tile<T>& akk,
                                tile::Tile<T>& aik,
                                const rk::TruncationParams& tp) const {
    if (akk.format == tile::TileFormat::Full) {
      tile::kernel_trsm_lower_right_adjoint(akk, aik, tp);
      return;
    }
    rt::NestedEpoch ep(*engine, cube(akk.h->rows()));
    if (!ep.parallel()) {
      tile::kernel_trsm_lower_right_adjoint(akk, aik, tp);
      return;
    }
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *aik.h, tp);
    g.submit_trsm_lower_right_adjoint(*akk.h, *aik.h);
    ep.wait();
  }

  void gemm_adjoint_b(T alpha, const tile::Tile<T>& a,
                      const tile::Tile<T>& b, tile::Tile<T>& c,
                      const rk::TruncationParams& tp) const {
    if (c.format == tile::TileFormat::Full || alpha != T{-1}) {
      tile::kernel_gemm_adjoint_b(alpha, a, b, c, tp);
      return;
    }
    rt::NestedEpoch ep(*engine,
                       2.0 * static_cast<double>(a.h->rows()) *
                           static_cast<double>(a.h->cols()) *
                           static_cast<double>(b.h->rows()));
    if (!ep.parallel()) {
      tile::kernel_gemm_adjoint_b(alpha, a, b, c, tp);
      return;
    }
    HluTaskGraph<T, rt::NestedEpoch> g(ep, *c.h, tp);
    g.submit_gemm_adjoint_b(*a.h, *b.h, *c.h);
    ep.wait();
  }
};

}  // namespace hcham::core
