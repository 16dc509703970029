// Cholesky path: dense POTRF/POTRS, H-Cholesky, the adjoint utilities it
// relies on, tiled POTRF/POTRS, the Tile-H symmetric solver, and iterative
// refinement on both factorizations.
#include <gtest/gtest.h>

#include "core/hchameleon.hpp"
#include "hmat_test_utils.hpp"
#include "la/potrf.hpp"
#include "tile/algorithms.hpp"

namespace hcham {
namespace {

using la::Matrix;
using la::Op;
using rt::Engine;
using hcham::testing::HmatFixture;
using hcham::testing::hmat_options;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

/// Random Hermitian positive-definite matrix: A = B B^H + n I.
template <typename T>
Matrix<T> random_spd(index_t n, std::uint64_t seed) {
  auto b = Matrix<T>::random(n, n, seed);
  Matrix<T> a(n, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, b.cview(), b.cview(), T{},
           a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += T(static_cast<real_t<T>>(n));
  return a;
}

template <typename T>
void check_potrf(index_t n, std::uint64_t seed) {
  auto a = random_spd<T>(n, seed);
  auto l = Matrix<T>::from_view(a.cview());
  ASSERT_EQ(la::potrf(l.view()), 0);
  // Zero the strict upper triangle, reconstruct L L^H.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) l(i, j) = T{};
  Matrix<T> rec(n, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, l.cview(), l.cview(), T{},
           rec.view());
  EXPECT_LT(rel_diff<T>(rec.cview(), a.cview()), 1e-12) << "n=" << n;
}

TEST(Potrf, ReconstructsSpdReal) {
  for (index_t n : {1, 7, 64, 65, 150}) check_potrf<double>(n, 10 + n);
}

TEST(Potrf, ReconstructsHpdComplex) {
  for (index_t n : {5, 80}) check_potrf<zdouble>(n, 50 + n);
}

TEST(Potrf, RejectsIndefiniteMatrix) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_EQ(la::potrf(a.view()), 2);
}

// A negative diagonal entry at k makes the leading minor k + 1 the first
// non-positive one; the recursion must report it by its global index, also
// two or more levels down.
TEST(Potrf, NonPositivePivotDeepInRecursionKeepsGlobalInfo) {
  const index_t n = 64;
  for (index_t k : {index_t{3}, index_t{17}, index_t{40}, index_t{63}}) {
    auto a = random_spd<double>(n, 70 + static_cast<std::uint64_t>(k));
    a(k, k) = -1.0;
    EXPECT_EQ(la::potrf(a.view()), k + 1) << "k=" << k;
    auto z = random_spd<zdouble>(n, 80 + static_cast<std::uint64_t>(k));
    z(k, k) = zdouble(-1.0);
    EXPECT_EQ(la::potrf(z.view()), k + 1) << "complex k=" << k;
  }
}

TEST(Potrs, SolvesSpdSystem) {
  auto a = random_spd<double>(90, 3);
  auto x0 = Matrix<double>::random(90, 2, 4);
  Matrix<double> b(90, 2);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, a.cview(), x0.cview(), 0.0,
           b.view());
  ASSERT_EQ(la::potrf(a.view()), 0);
  la::potrs<double>(a.cview(), b.view());
  EXPECT_LT(rel_diff<double>(b.cview(), x0.cview()), 1e-10);
}

TEST(Adjoint, DenseOfAdjointMatchesAdjointOfDense) {
  HmatFixture<zdouble> fx(300);
  auto h = fx.build(hmat_options(1e-6));
  auto ah = hmat::adjoint_of(h);
  auto d = h.to_dense();
  auto da = ah.to_dense();
  ASSERT_EQ(da.rows(), d.cols());
  double worst = 0.0;
  for (index_t j = 0; j < d.cols(); ++j)
    for (index_t i = 0; i < d.rows(); ++i)
      worst = std::max(worst, std::abs(da(j, i) - conj_if(d(i, j))));
  // Densification sums in a different order for the adjoint: ulp noise.
  EXPECT_LT(worst, 1e-13);
}

TEST(Adjoint, RectangularBlock) {
  HmatFixture<double> fx(500);
  const auto& root = fx.tree->node(fx.tree->root());
  auto h = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[1],
                                       fx.generator(), hmat_options(1e-6));
  auto ah = hmat::adjoint_of(h);
  EXPECT_EQ(ah.rows(), h.cols());
  EXPECT_EQ(ah.cols(), h.rows());
  auto d = h.to_dense();
  auto da = ah.to_dense();
  double worst = 0.0;
  for (index_t j = 0; j < d.cols(); ++j)
    for (index_t i = 0; i < d.rows(); ++i)
      worst = std::max(worst, std::abs(da(j, i) - d(i, j)));
  EXPECT_LT(worst, 1e-13);
}

TEST(Hchol, FactorizesBemKernel) {
  // The real 1/d kernel matrix is symmetric positive definite.
  HmatFixture<double> fx(400);
  auto h = fx.build(hmat_options(1e-8));
  auto exact = h.to_dense();
  ASSERT_EQ(hmat::hchol(h, rk::TruncationParams{1e-8, -1}), 0);

  // Extract lower L (upper blocks are stale after hchol).
  auto lu = h.to_dense();
  Matrix<double> l(400, 400);
  for (index_t j = 0; j < 400; ++j)
    for (index_t i = j; i < 400; ++i) l(i, j) = lu(i, j);
  Matrix<double> rec(400, 400);
  la::gemm(Op::NoTrans, Op::ConjTrans, 1.0, l.cview(), l.cview(), 0.0,
           rec.view());
  EXPECT_LT(rel_diff<double>(rec.cview(), exact.cview()), 1e-5);
}

TEST(Hchol, SolveMatchesKnownSolution) {
  HmatFixture<double> fx(350);
  auto h = fx.build(hmat_options(1e-8));
  auto dense = fx.dense_permuted();
  auto x0 = Matrix<double>::random(350, 1, 9);
  Matrix<double> b(350, 1);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, dense.cview(), x0.cview(), 0.0,
           b.view());
  ASSERT_EQ(hmat::hchol(h, rk::TruncationParams{1e-8, -1}), 0);
  hmat::hchol_solve(h, b.view());
  EXPECT_LT(rel_diff<double>(b.cview(), x0.cview()), 1e-5);
}

TEST(Hchol, RejectsIndefiniteKernel) {
  auto mesh = bem::make_cylinder(64);
  cluster::ClusteringOptions copts;
  copts.leaf_size = 16;
  auto tree = std::make_shared<const cluster::ClusterTree>(
      cluster::ClusterTree::build(mesh.points, copts));
  hmat::HMatrixOptions opts;
  opts.admissibility = cluster::AdmissibilityCondition::none();
  // Alternating-sign diagonal: indefinite.
  auto gen = [](index_t i, index_t j) {
    return i == j ? (i % 2 == 0 ? 1.0 : -1.0) : 0.0;
  };
  auto h = hmat::build_hmatrix<double>(tree, tree->root(), tree->root(), gen,
                                       opts);
  EXPECT_GT(hmat::hchol(h, rk::TruncationParams{1e-10, -1}), 0);
}

TEST(TiledPotrf, MatchesDenseCholesky) {
  Engine eng({.num_workers = 3});
  auto a = random_spd<double>(120, 21);
  tile::TileDesc<double> d(eng, 120, 120, 32);
  d.fill_dense(a.cview());
  tile::tiled_potrf(eng, d, rk::TruncationParams{1e-12, -1});
  eng.wait_all();

  auto ref = Matrix<double>::from_view(a.cview());
  ASSERT_EQ(la::potrf(ref.view()), 0);
  // Compare lower triangles only (upper tiles are not written).
  auto got = d.to_dense();
  for (index_t j = 0; j < 120; ++j)
    for (index_t i = j; i < 120; ++i)
      EXPECT_NEAR(got(i, j), ref(i, j), 1e-10) << i << "," << j;
}

TEST(TiledPotrs, SolvesSpdSystem) {
  Engine eng({.num_workers = 2});
  auto a = random_spd<zdouble>(100, 23);
  tile::TileDesc<zdouble> d(eng, 100, 100, 30);
  d.fill_dense(a.cview());
  tile::tiled_potrf(eng, d, rk::TruncationParams{1e-12, -1});
  eng.wait_all();
  auto x0 = Matrix<zdouble>::random(100, 1, 25);
  Matrix<zdouble> b(100, 1);
  la::gemm(Op::NoTrans, Op::NoTrans, zdouble(1), a.cview(), x0.cview(),
           zdouble(0), b.view());
  tile::tiled_potrs(eng, d, b.view());
  eng.wait_all();
  EXPECT_LT(rel_diff<zdouble>(b.cview(), x0.cview()), 1e-10);
}

TEST(TileHCholesky, FactorizeAndSolveBemSystem) {
  const index_t n = 600;
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine({.num_workers = 2});
  core::TileHOptions opts;
  opts.tile_size = 128;
  opts.hmatrix.compression.eps = 1e-8;
  auto a = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                            opts);
  auto a2 = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                             opts);
  Rng rng(31);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& v : x0) v = rng.uniform(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  a2.matvec(1.0, x0.data(), 0.0, b.data());

  a.factorize_cholesky(engine);
  la::MatrixView<double> bv(b.data(), n, 1, n);
  a.solve_cholesky(engine, bv);
  double err = 0, ref = 0;
  for (index_t i = 0; i < n; ++i) {
    err += (b[static_cast<std::size_t>(i)] - x0[static_cast<std::size_t>(i)]) *
           (b[static_cast<std::size_t>(i)] - x0[static_cast<std::size_t>(i)]);
    ref += x0[static_cast<std::size_t>(i)] * x0[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(std::sqrt(err / ref), 1e-4);
}

TEST(TileHCholesky, TaskCountIsRoughlyHalfOfLu) {
  const index_t n = 640;
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine e1, e2;
  core::TileHOptions opts;
  opts.tile_size = 128;
  opts.hmatrix.compression.eps = 1e-4;
  auto a1 = core::TileHMatrix<double>::build(e1, problem.points(), gen, opts);
  auto a2 = core::TileHMatrix<double>::build(e2, problem.points(), gen, opts);
  const index_t base1 = e1.num_tasks();
  const index_t base2 = e2.num_tasks();
  a1.factorize_submit(e1);
  a2.factorize_cholesky_submit(e2);
  const index_t lu_tasks = e1.num_tasks() - base1;
  const index_t chol_tasks = e2.num_tasks() - base2;
  EXPECT_LT(chol_tasks, lu_tasks);
  EXPECT_GT(chol_tasks, lu_tasks / 3);
  e1.wait_all();
  e2.wait_all();
}

TEST(Refinement, ImprovesLooseEpsSolve) {
  // Tall cylinder + small leaves: plenty of admissible blocks, so the
  // loose eps genuinely degrades the factorization.
  const index_t n = 800;
  bem::FemBemProblem<double> problem(n, 1.0, 16.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine;
  core::TileHOptions opts;
  opts.tile_size = 200;
  opts.clustering.leaf_size = 32;
  opts.hmatrix.compression.eps = 1e-2;  // deliberately loose
  auto f = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                            opts);
  core::TileHOptions tight = opts;
  tight.hmatrix.compression.eps = 1e-10;  // accurate operator for residuals
  auto op = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                             tight);
  f.factorize(engine);

  Rng rng(41);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& v : x0) v = rng.uniform(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  op.matvec(1.0, x0.data(), 0.0, b.data());
  auto b_plain = b;

  // Plain solve error.
  la::MatrixView<double> bp(b_plain.data(), n, 1, n);
  f.solve(engine, bp);
  double err_plain = 0, ref = 0;
  for (index_t i = 0; i < n; ++i) {
    err_plain += (b_plain[static_cast<std::size_t>(i)] -
                  x0[static_cast<std::size_t>(i)]) *
                 (b_plain[static_cast<std::size_t>(i)] -
                  x0[static_cast<std::size_t>(i)]);
    ref += x0[static_cast<std::size_t>(i)] * x0[static_cast<std::size_t>(i)];
  }
  err_plain = std::sqrt(err_plain / ref);

  // Refined solve error.
  la::MatrixView<double> bv(b.data(), n, 1, n);
  auto rr = core::solve_refined(f, op, engine, bv, 5, 1e-14);
  double err_ref = 0;
  for (index_t i = 0; i < n; ++i)
    err_ref += (b[static_cast<std::size_t>(i)] -
                x0[static_cast<std::size_t>(i)]) *
               (b[static_cast<std::size_t>(i)] -
                x0[static_cast<std::size_t>(i)]);
  err_ref = std::sqrt(err_ref / ref);

  EXPECT_GT(rr.iterations, 0);
  EXPECT_LT(err_ref, 0.5 * err_plain);
  EXPECT_LT(rr.final_residual, 1e-6);
  EXPECT_GT(err_plain, 1e-9);  // the loose solve really was loose
}

TEST(Refinement, CholeskyVariant) {
  const index_t n = 400;
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine;
  core::TileHOptions opts;
  opts.tile_size = 128;
  opts.hmatrix.compression.eps = 1e-3;
  auto f = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                            opts);
  core::TileHOptions tight = opts;
  tight.hmatrix.compression.eps = 1e-10;
  auto op = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                             tight);
  f.factorize_cholesky(engine);

  Rng rng(43);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& v : x0) v = rng.uniform(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  op.matvec(1.0, x0.data(), 0.0, b.data());
  la::MatrixView<double> bv(b.data(), n, 1, n);
  auto rr = core::solve_refined(f, op, engine, bv, 5, 1e-12,
                                /*cholesky=*/true);
  EXPECT_LT(rr.final_residual, 1e-6);
}

}  // namespace
}  // namespace hcham
