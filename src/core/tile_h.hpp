// The Tile-H matrix: the paper's contribution (H-Chameleon, Section IV).
//
// The matrix is split into regular nt x nt tiles via the NTilesRecursive
// clustering (Algorithm 2); every tile is an independent H-matrix built
// over the tile's (row, column) cluster pair of the shared cluster tree.
// The CHAMELEON-style tiled algorithms then factorize and solve with one
// task per tile kernel, where each kernel runs hmat-oss-style sequential
// H-arithmetic (paper Section IV-D). This class is the analogue of the
// HCHAM_desc_s structure (paper Structure 3): it ties together the tile
// descriptor ("super"), the cluster tree ("clusters"), the admissibility
// condition, and the permutation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "cluster/cluster_tree.hpp"
#include "core/nested.hpp"
#include "hmatrix/build.hpp"
#include "hmatrix/matmat.hpp"
#include "la/norms.hpp"
#include "runtime/engine.hpp"
#include "tile/algorithms.hpp"
#include "tile/tile_desc.hpp"

namespace hcham::core {

/// Per-tile representation (paper Section III discusses the alternatives):
///  * TileH — every tile is an H-matrix (the paper's contribution);
///  * Blr   — Block Low-Rank: every tile is a single low-rank or dense
///            block (no hierarchy inside tiles; simpler, more memory);
///  * Dense — plain dense tiles (the classic CHAMELEON baseline).
enum class TileRepresentation : std::int8_t { TileH, Blr, Dense };

struct TileHOptions {
  index_t tile_size = 256;  ///< NB
  TileRepresentation format = TileRepresentation::TileH;
  cluster::ClusteringOptions clustering;  ///< within-tile refinement
  hmat::HMatrixOptions hmatrix;           ///< admissibility + compression

  rk::TruncationParams truncation() const {
    return hmatrix.compression.truncation();
  }
};

template <typename T>
class TileHMatrix {
 public:
  /// Build the Tile-H matrix of the kernel `gen` (original indices) over
  /// `points`. Assembly is task-parallel: one task per tile, executed by
  /// `engine` before returning.
  ///
  /// Tile payloads are allocated inside the assemble closures (not on the
  /// submitting thread), so allocation and the first page faults run in
  /// parallel on the workers rather than serially on the caller.
  template <typename Gen>
  static TileHMatrix build(rt::Engine& engine,
                           std::vector<cluster::Point3> points,
                           const Gen& gen, const TileHOptions& opts) {
    TileHMatrix m(engine, std::move(points), opts);
    const index_t nt = m.num_tiles();
    const cluster::ClusterTree* tree = &m.clustering_.tree;
    for (index_t i = 0; i < nt; ++i) {
      for (index_t j = 0; j < nt; ++j) {
        tile::Tile<T>& t = m.desc_->tile(i, j);
        const hmat::HMatrixOptions hopts = opts.hmatrix;
        switch (opts.format) {
          case TileRepresentation::TileH: {
            hmat::HMatrix<T>* block = t.h.get();
            engine.submit(
                [block, gen, hopts] {
                  hmat::assemble_hmatrix(*block, gen, hopts);
                },
                {rt::write(m.desc_->handle(i, j))}, 0, "assemble");
            break;
          }
          case TileRepresentation::Blr: {
            hmat::HMatrix<T>* block = t.h.get();
            engine.submit(
                [block, gen, hopts] { assemble_blr_tile(*block, gen, hopts); },
                {rt::write(m.desc_->handle(i, j))}, 0, "assemble");
            break;
          }
          case TileRepresentation::Dense: {
            tile::Tile<T>* tp = &t;
            const index_t ro = m.desc_->row_offset(i);
            const index_t co = m.desc_->col_offset(j);
            engine.submit(
                [tp, gen, tree, ro, co] {
                  tp->full.reset(tp->m, tp->n);
                  for (index_t c = 0; c < tp->n; ++c)
                    for (index_t r = 0; r < tp->m; ++r)
                      tp->full(r, c) =
                          gen(tree->perm(ro + r), tree->perm(co + c));
                },
                {rt::write(m.desc_->handle(i, j))}, 0, "assemble");
            break;
          }
        }
      }
    }
    engine.wait_all();
    return m;
  }

  /// Structural skeleton over an existing clustering: fresh runtime
  /// handles, per-tile H-roots allocated, payloads empty. The factor-store
  /// loader (lifecycle/factor_store.hpp) builds one of these and fills the
  /// tiles from the mapped payload; the lifecycle rebase path uses it to
  /// re-home tiles built on a background engine onto the serving engine.
  static TileHMatrix skeleton(rt::Engine& engine,
                              cluster::TileClustering clustering,
                              const TileHOptions& opts) {
    return TileHMatrix(engine, std::move(clustering), opts);
  }

  index_t size() const { return n_; }
  index_t num_tiles() const {
    return static_cast<index_t>(clustering_.tile_roots.size());
  }
  index_t tile_size() const { return opts_.tile_size; }
  const cluster::TileClustering& clustering() const { return clustering_; }

  tile::TileDesc<T>& desc() { return *desc_; }
  const tile::TileDesc<T>& desc() const { return *desc_; }
  const cluster::ClusterTree& tree() const { return clustering_.tree; }
  const TileHOptions& options() const { return opts_; }

  /// The tile (i, j) as an H-matrix.
  const hmat::HMatrix<T>& block(index_t i, index_t j) const {
    return *desc_->tile(i, j).h;
  }

  index_t stored_elements() const { return desc_->stored_elements(); }
  /// Stored scalars / n^2 (paper Fig. 4 metric).
  double compression_ratio() const { return desc_->compression_ratio(); }

  /// 64-bit hash of everything the factorize/solve task graphs are a
  /// function of: problem size, tile grid, per-tile representation,
  /// cluster-tree topology, and the admissibility/compression options
  /// shaping the within-tile structure. Two instances with equal
  /// signatures submit identical task graphs, so a graph captured on one
  /// replays on the other — the graph-cache key contract (DESIGN.md
  /// section 10).
  std::uint64_t structure_signature() const {
    std::uint64_t h = 0x7469'6c65'6873'6967ULL;  // "tilehsig"
    h = hash_mix(h, static_cast<std::uint64_t>(n_));
    h = hash_mix(h, static_cast<std::uint64_t>(opts_.tile_size));
    h = hash_mix(h, static_cast<std::uint64_t>(num_tiles()));
    h = hash_mix(h, static_cast<std::uint64_t>(opts_.format));
    h = hash_mix(h, static_cast<std::uint64_t>(opts_.clustering.leaf_size));
    h = hash_mix(h, static_cast<std::uint64_t>(opts_.clustering.strategy));
    const cluster::AdmissibilityCondition& adm = opts_.hmatrix.admissibility;
    h = hash_mix(h, static_cast<std::uint64_t>(adm.kind));
    h = hash_double(h, adm.eta);
    h = hash_mix(h, adm.use_min_diameter ? 1 : 0);
    h = hash_double(h, opts_.hmatrix.compression.eps);
    h = hash_mix(h,
                 static_cast<std::uint64_t>(opts_.hmatrix.compression.max_rank));
    h = hash_mix(h, clustering_.tree.structure_signature());
    return h;
  }

  /// Submit the tiled H-LU task graph (paper Algorithm 1 with H-kernels).
  /// Call engine.wait_all() to execute; or use factorize(). Tile kernels
  /// go through the nested-epoch set (core/nested.hpp): large H-tile
  /// kernels re-split into per-leaf sub-epochs when the gate opens, and
  /// degrade to the plain sequential kernels otherwise
  /// (HCHAM_NESTED_DISABLE=1 forces the latter everywhere).
  void factorize_submit(rt::Engine& engine) {
    tile::tiled_getrf(engine, *desc_, opts_.truncation(),
                      NestedTileKernels<T>{&engine});
  }

  /// Factorize; with a cache the epoch is captured on first sight of this
  /// structure signature and replayed afterwards (DESIGN.md section 10).
  void factorize(rt::Engine& engine, rt::GraphCache* cache = nullptr) {
    rt::run_epoch_cached(engine, cache,
                         hash_mix(structure_signature(), kEpochLu),
                         [&] { factorize_submit(engine); });
  }

  /// Submit the tiled H-Cholesky task graph (A = L L^H; valid for the
  /// Hermitian positive-definite case, e.g. the real 1/d kernel).
  void factorize_cholesky_submit(rt::Engine& engine) {
    tile::tiled_potrf(engine, *desc_, opts_.truncation(),
                      NestedTileKernels<T>{&engine});
  }

  void factorize_cholesky(rt::Engine& engine,
                          rt::GraphCache* cache = nullptr) {
    rt::run_epoch_cached(engine, cache,
                         hash_mix(structure_signature(), kEpochCholesky),
                         [&] { factorize_cholesky_submit(engine); });
  }

  /// Solve A X = B in the ORIGINAL index ordering, in place, using the
  /// tiled factors. B may hold any number of right-hand-side columns, all
  /// solved in one task graph. Executes the solve task graph on `engine`;
  /// with a cache the graph is captured once per structure and replayed on
  /// subsequent solves of any column count.
  void solve(rt::Engine& engine, la::MatrixView<T> b,
             rt::GraphCache* cache = nullptr) {
    solve_impl(engine, b, /*cholesky=*/false, cache);
  }

  /// Solve after factorize_cholesky().
  void solve_cholesky(rt::Engine& engine, la::MatrixView<T> b,
                      rt::GraphCache* cache = nullptr) {
    solve_impl(engine, b, /*cholesky=*/true, cache);
  }

  /// y = alpha A x + beta y in the ORIGINAL index ordering (sequential;
  /// used for RHS generation and residual checks): one GEMM or H-matmat
  /// per tile.
  void matvec(T alpha, const T* x, T beta, T* y) const {
    std::vector<T> xp(static_cast<std::size_t>(n_));
    std::vector<T> yp(static_cast<std::size_t>(n_), T{});
    for (index_t i = 0; i < n_; ++i)
      xp[static_cast<std::size_t>(i)] = x[clustering_.tree.perm(i)];
    const index_t nt = num_tiles();
    for (index_t i = 0; i < nt; ++i) {
      for (index_t j = 0; j < nt; ++j) {
        const tile::Tile<T>& t = desc_->tile(i, j);
        la::ConstMatrixView<T> xv(xp.data() + desc_->col_offset(j), t.n, 1,
                                  t.n > 0 ? t.n : 1);
        la::MatrixView<T> yv(yp.data() + desc_->row_offset(i), t.m, 1,
                             t.m > 0 ? t.m : 1);
        if (t.format == tile::TileFormat::Full) {
          la::gemm(la::Op::NoTrans, la::Op::NoTrans, T{1}, t.full.cview(), xv,
                   T{1}, yv);
        } else {
          hmat::matmat(la::Op::NoTrans, T{1}, *t.h, xv, T{1}, yv);
        }
      }
    }
    for (index_t i = 0; i < n_; ++i) {
      T& yi = y[clustering_.tree.perm(i)];
      yi = beta * yi + alpha * yp[static_cast<std::size_t>(i)];
    }
  }

  /// Exact Frobenius norm from the compressed tiles (tile index sets are
  /// disjoint, so the squares add). Feeds the auto residual target of
  /// core::solve_refined.
  real_t<T> norm_fro() const {
    real_t<T> acc{};
    const index_t nt = num_tiles();
    for (index_t i = 0; i < nt; ++i)
      for (index_t j = 0; j < nt; ++j) {
        const tile::Tile<T>& t = desc_->tile(i, j);
        if (t.format == tile::TileFormat::Full) {
          const real_t<T> f = la::norm_fro(t.full.cview());
          acc += f * f;
        } else if (t.h) {
          acc += t.h->norm_fro_sq();
        }
      }
    return std::sqrt(acc);
  }

  /// Deep copy on `engine` (same clustering, same options, so the same
  /// structure signature): one task per tile. The refactorization paths
  /// copy the operator and factorize the copy.
  TileHMatrix deep_copy(rt::Engine& engine) const {
    TileHMatrix out(engine, clustering_, opts_);
    const index_t nt = num_tiles();
    for (index_t i = 0; i < nt; ++i) {
      for (index_t j = 0; j < nt; ++j) {
        const tile::Tile<T>* src = &desc_->tile(i, j);
        tile::Tile<T>* dst = &out.desc_->tile(i, j);
        engine.submit(
            [src, dst] {
              if (src->format == tile::TileFormat::Full) {
                dst->format = tile::TileFormat::Full;
                dst->full = la::Matrix<T>::from_view(src->full.cview());
                dst->h.reset();
              } else {
                hmat::copy_into(*src->h, *dst->h);
              }
            },
            {rt::write(out.desc_->handle(i, j))}, 0, "copy");
      }
    }
    engine.wait_all();
    return out;
  }

  /// Densify in the ORIGINAL ordering (tests / small problems only).
  la::Matrix<T> to_dense_original() const {
    la::Matrix<T> perm_dense(n_, n_);
    const index_t nt = num_tiles();
    for (index_t i = 0; i < nt; ++i)
      for (index_t j = 0; j < nt; ++j) {
        const tile::Tile<T>& t = desc_->tile(i, j);
        auto dst = perm_dense.block(desc_->row_offset(i),
                                    desc_->col_offset(j), t.m, t.n);
        if (t.format == tile::TileFormat::Full) {
          la::copy(t.full.cview(), dst);
        } else {
          dst.set_zero();
          t.h->add_to_dense(T{1}, dst);
        }
      }
    la::Matrix<T> result(n_, n_);
    for (index_t j = 0; j < n_; ++j)
      for (index_t i = 0; i < n_; ++i)
        result(clustering_.tree.perm(i), clustering_.tree.perm(j)) =
            perm_dense(i, j);
    return result;
  }

 private:
  /// BLR: the whole tile is one block - low-rank when the tile bounding
  /// boxes are admissible, dense otherwise.
  template <typename Gen>
  static void assemble_blr_tile(hmat::HMatrix<T>& node, const Gen& gen,
                                const hmat::HMatrixOptions& opts) {
    const auto& tree = node.tree();
    const auto& rc = node.row_cluster();
    const auto& cc = node.col_cluster();
    auto local_gen = [&](index_t i, index_t j) {
      return gen(tree.perm(rc.offset + i), tree.perm(cc.offset + j));
    };
    if (opts.admissibility.admissible(rc.box, cc.box,
                                      node.row_node() == node.col_node())) {
      node.make_rk(
          rk::compress<T>(local_gen, rc.size, cc.size, opts.compression));
      return;
    }
    la::Matrix<T> dense(rc.size, cc.size);
    for (index_t j = 0; j < cc.size; ++j)
      for (index_t i = 0; i < rc.size; ++i) dense(i, j) = local_gen(i, j);
    node.make_full(std::move(dense));
  }

  // Epoch-kind tags mixed into the cache key so the four graph shapes of
  // one structure (LU/Cholesky factor, LU/Cholesky solve) never collide.
  static constexpr std::uint64_t kEpochLu = 0x6c75;
  static constexpr std::uint64_t kEpochCholesky = 0x636f6c;
  static constexpr std::uint64_t kEpochSolve = 0x736f6c76;

  void solve_impl(rt::Engine& engine, la::MatrixView<T> b, bool cholesky,
                  rt::GraphCache* cache) {
    HCHAM_CHECK(b.rows() == n_ && b.cols() >= 1);
    const index_t nrhs = b.cols();
    la::Matrix<T> bp(n_, nrhs);
    for (index_t c = 0; c < nrhs; ++c)
      for (index_t i = 0; i < n_; ++i)
        bp(i, c) = b(clustering_.tree.perm(i), c);
    // The solve graph is a function of the tile structure alone: the
    // closures capture the RHS view, so a replay rebinds any column count.
    std::uint64_t key = hash_mix(structure_signature(), kEpochSolve);
    key = hash_mix(key, cholesky ? kEpochCholesky : kEpochLu);
    rt::run_epoch_cached(engine, cache, key, [&] {
      if (cholesky) {
        tile::tiled_potrs(engine, *desc_, bp.view());
      } else {
        tile::tiled_getrs(engine, *desc_, bp.view());
      }
    });
    for (index_t c = 0; c < nrhs; ++c)
      for (index_t i = 0; i < n_; ++i)
        b(clustering_.tree.perm(i), c) = bp(i, c);
  }

  TileHMatrix(rt::Engine& engine, std::vector<cluster::Point3> points,
              const TileHOptions& opts)
      : opts_(opts),
        n_(static_cast<index_t>(points.size())),
        clustering_(cluster::build_ntiles_clustering(
            std::move(points), opts.tile_size, opts.clustering)) {
    init_tiles(engine);
  }

  /// Skeleton over an already-built clustering (deep_copy, skeleton()):
  /// fresh handles, empty tile payloads.
  TileHMatrix(rt::Engine& engine, cluster::TileClustering clustering,
              const TileHOptions& opts)
      : opts_(opts),
        n_(clustering.tree.num_points()),
        clustering_(std::move(clustering)) {
    init_tiles(engine);
  }

  void init_tiles(rt::Engine& engine) {
    // The tile descriptor mirrors the NTilesRecursive partition: all tiles
    // have size NB except the trailing one.
    desc_ = std::make_unique<tile::TileDesc<T>>(engine, n_, n_,
                                                opts_.tile_size);
    HCHAM_CHECK(desc_->nt() == num_tiles());
    auto tree_ptr =
        std::make_shared<const cluster::ClusterTree>(clustering_.tree);
    for (index_t i = 0; i < num_tiles(); ++i) {
      for (index_t j = 0; j < num_tiles(); ++j) {
        tile::Tile<T>& t = desc_->tile(i, j);
        if (opts_.format == TileRepresentation::Dense) {
          t.format = tile::TileFormat::Full;
          continue;
        }
        t.format = tile::TileFormat::HMat;
        t.h = std::make_unique<hmat::HMatrix<T>>(
            tree_ptr,
            clustering_.tile_roots[static_cast<std::size_t>(i)],
            clustering_.tile_roots[static_cast<std::size_t>(j)]);
        HCHAM_CHECK(t.h->rows() == t.m && t.h->cols() == t.n);
      }
    }
  }

  TileHOptions opts_;
  index_t n_;
  cluster::TileClustering clustering_;
  std::unique_ptr<tile::TileDesc<T>> desc_;
};

}  // namespace hcham::core
