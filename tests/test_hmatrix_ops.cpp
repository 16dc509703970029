// H-arithmetic tests: matmat/gemv, structured additions, agglomeration,
// H-GEMM in mixed-structure configurations, H-TRSM.
#include <gtest/gtest.h>

#include "hmat_test_utils.hpp"

namespace hcham {
namespace {

using hmat::HMatrix;
using la::Matrix;
using la::Op;
using rk::TruncationParams;
using hcham::testing::HmatFixture;
using hcham::testing::hmat_options;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

constexpr double kEps = 1e-8;

template <typename T>
void check_matmat(Op op, index_t q, double tol = 1e-6) {
  HmatFixture<T> fx(300);
  auto h = fx.build(hmat_options(kEps));
  auto dense = fx.dense_permuted();
  auto x = Matrix<T>::random(300, q, 11);
  auto y = Matrix<T>::random(300, q, 12);
  auto y_ref = Matrix<T>::from_view(y.cview());
  const T alpha = T(2);
  const T beta = T(-1);
  hmat::matmat(op, alpha, h, x.cview(), beta, y.view());
  hcham::testing::reference_gemm(op, Op::NoTrans, alpha, dense.cview(),
                                 x.cview(), beta, y_ref.view());
  EXPECT_LT(rel_diff<T>(y.cview(), y_ref.cview()), tol) << la::to_string(op);
}

TEST(HmatMatmat, AllOpsReal) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans}) {
    check_matmat<double>(op, 3);
    check_matmat<float>(op, 3, 1e-4);
  }
}

TEST(HmatMatmat, AllOpsComplex) {
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
    check_matmat<zdouble>(op, 2);
}

TEST(HmatMatmat, SingleVectorGemv) {
  HmatFixture<double> fx(250);
  auto h = fx.build(hmat_options(kEps));
  auto dense = fx.dense_permuted();
  auto x = Matrix<double>::random(250, 1, 21);
  std::vector<double> y(250, 0.5), y_ref(250, 0.5);
  hmat::gemv(Op::NoTrans, 3.0, h, x.data(), 2.0, y.data());
  la::gemv<double>(Op::NoTrans, 3.0, dense.cview(), x.data(), 2.0,
                   y_ref.data());
  for (index_t i = 0; i < 250; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-5);
}

template <typename T>
void check_matmat_left(T alpha, T beta) {
  HmatFixture<T> fx(300);
  auto h = fx.build(hmat_options(kEps));
  auto dense = fx.dense_permuted();
  auto x = Matrix<T>::random(4, 300, 31);
  auto y = Matrix<T>::random(4, 300, 32);
  auto y_ref = Matrix<T>::from_view(y.cview());
  hmat::matmat_left(alpha, x.cview(), h, beta, y.view());
  la::gemm(Op::NoTrans, Op::NoTrans, alpha, x.cview(), dense.cview(), beta,
           y_ref.view());
  EXPECT_LT(rel_diff<T>(y.cview(), y_ref.cview()), 1e-6);
}

TEST(HmatMatmat, LeftMultiplication) {
  check_matmat_left<double>(1.5, 0.0);
  check_matmat_left<zdouble>(zdouble(1.5, -0.5), zdouble(0.25, 2.0));
}

/// First Rk leaf of `h` in walk order, or nullptr.
template <typename T>
rk::RkMatrix<T>* first_rk_leaf(HMatrix<T>& h) {
  if (h.is_rk()) return &h.rk();
  if (h.is_full()) return nullptr;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      if (auto* r = first_rk_leaf(h.child(i, j))) return r;
  return nullptr;
}

// A zero-rank Rk leaf (truncation can leave one) contributes nothing to
// either product.
TEST(HmatMatmat, ZeroRankRkLeaf) {
  HmatFixture<zdouble> fx(300);
  auto h = fx.build(hmat_options(kEps));
  rk::RkMatrix<zdouble>* leaf = first_rk_leaf(h);
  ASSERT_NE(leaf, nullptr);
  ASSERT_GT(leaf->rank(), 0);
  leaf->set_zero();
  auto dense = h.to_dense();
  const zdouble alpha(2.0, 1.0), beta(-1.0, 0.5);
  for (auto op : {Op::NoTrans, Op::Trans, Op::ConjTrans}) {
    auto x = Matrix<zdouble>::random(300, 3, 41);
    auto y = Matrix<zdouble>::random(300, 3, 42);
    auto y_ref = Matrix<zdouble>::from_view(y.cview());
    hmat::matmat(op, alpha, h, x.cview(), beta, y.view());
    hcham::testing::reference_gemm(op, Op::NoTrans, alpha, dense.cview(),
                                   x.cview(), beta, y_ref.view());
    EXPECT_LT(rel_diff<zdouble>(y.cview(), y_ref.cview()), 1e-12)
        << la::to_string(op);
  }
  auto x = Matrix<zdouble>::random(3, 300, 43);
  auto y = Matrix<zdouble>::random(3, 300, 44);
  auto y_ref = Matrix<zdouble>::from_view(y.cview());
  hmat::matmat_left(alpha, x.cview(), h, beta, y.view());
  la::gemm(Op::NoTrans, Op::NoTrans, alpha, x.cview(), dense.cview(), beta,
           y_ref.view());
  EXPECT_LT(rel_diff<zdouble>(y.cview(), y_ref.cview()), 1e-12);
}

TEST(HmatAdd, RkUpdateDistributesOverTree) {
  HmatFixture<double> fx(300);
  auto h = fx.build(hmat_options(kEps));
  auto before = h.to_dense();
  auto u = Matrix<double>::random(300, 3, 41);
  auto v = Matrix<double>::random(300, 3, 42);
  rk::RkMatrix<double> r(Matrix<double>::from_view(u.cview()),
                         Matrix<double>::from_view(v.cview()));
  hmat::add_rk_to(h, -2.0, r, TruncationParams{1e-10, -1});
  auto expected = before;
  la::axpy(-2.0, r.dense().cview(), expected.view());
  EXPECT_LT(rel_diff<double>(h.to_dense().cview(), expected.cview()), 1e-7);
}

TEST(HmatAdd, DenseUpdateDistributesOverTree) {
  HmatFixture<zdouble> fx(250);
  auto h = fx.build(hmat_options(kEps));
  auto before = h.to_dense();
  // A low-rank perturbation expressed densely (so Rk leaves stay compact).
  auto d = hcham::testing::rank_r_matrix<zdouble>(250, 250, 2, 43);
  hmat::add_dense_to(h, zdouble(0, 1), d.cview(), TruncationParams{1e-10, -1});
  auto expected = before;
  la::axpy(zdouble(0, 1), d.cview(), expected.view());
  EXPECT_LT(rel_diff<zdouble>(h.to_dense().cview(), expected.cview()), 1e-6);
}

TEST(HmatAdd, ToRkAgglomeratesWholeMatrix) {
  // Use an off-diagonal (admissible-dominated) block so the agglomerated
  // rank stays moderate.
  HmatFixture<double> fx(600, 32, 16.0);
  const auto& root = fx.tree->node(fx.tree->root());
  auto h = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[1],
                                       fx.generator(), hmat_options(1e-6));
  auto r = hmat::to_rk(h, TruncationParams{1e-6, -1});
  EXPECT_LT(rel_diff<double>(r.dense().cview(), h.to_dense().cview()), 1e-4);
  EXPECT_LT(r.rank(), h.rows() / 2);
}

// --- H-GEMM ----------------------------------------------------------------

template <typename T>
void check_hgemm_square(index_t n, double tol) {
  HmatFixture<T> fx(n);
  const auto opts = hmat_options(kEps);
  auto a = fx.build(opts);
  auto b = fx.build(opts);
  auto c = fx.build(opts);
  auto exact = fx.dense_permuted();

  Matrix<T> c_ref = c.to_dense();
  la::gemm(Op::NoTrans, Op::NoTrans, T{-1}, exact.cview(), exact.cview(),
           T{1}, c_ref.view());

  hmat::hgemm(T{-1}, a, b, c, TruncationParams{kEps, -1});
  EXPECT_LT(rel_diff<T>(c.to_dense().cview(), c_ref.cview()), tol);
}

TEST(Hgemm, SquareReal) { check_hgemm_square<double>(300, 1e-5); }
TEST(Hgemm, SquareComplex) { check_hgemm_square<zdouble>(250, 1e-5); }

TEST(Hgemm, RectangularBlocksAcrossTree) {
  // C_01 += A_00 * B_01: the panel-update shape of the LU factorization.
  HmatFixture<double> fx(600);
  const auto opts = hmat_options(kEps);
  const auto& root = fx.tree->node(fx.tree->root());
  auto gen = fx.generator();
  auto a00 = hmat::build_hmatrix<double>(fx.tree, root.child[0],
                                         root.child[0], gen, opts);
  auto b01 = hmat::build_hmatrix<double>(fx.tree, root.child[0],
                                         root.child[1], gen, opts);
  auto c01 = hmat::build_hmatrix<double>(fx.tree, root.child[0],
                                         root.child[1], gen, opts);

  auto full = fx.dense_permuted();
  const auto& c0 = fx.tree->node(root.child[0]);
  const auto& c1 = fx.tree->node(root.child[1]);
  auto a_d = Matrix<double>::from_view(
      full.block(c0.offset, c0.offset, c0.size, c0.size));
  auto b_d = Matrix<double>::from_view(
      full.block(c0.offset, c1.offset, c0.size, c1.size));
  auto c_ref = Matrix<double>::from_view(
      full.block(c0.offset, c1.offset, c0.size, c1.size));
  la::gemm(Op::NoTrans, Op::NoTrans, -1.0, a_d.cview(), b_d.cview(), 1.0,
           c_ref.view());

  hmat::hgemm(-1.0, a00, b01, c01, TruncationParams{kEps, -1});
  EXPECT_LT(rel_diff<double>(c01.to_dense().cview(), c_ref.cview()), 1e-5);
}

TEST(Hgemm, ProductOntoRkLeafViaAgglomeration) {
  // C far off-diagonal (likely a single Rk leaf at the top): A and B
  // subdivided products must agglomerate correctly onto it.
  HmatFixture<double> fx(800, 32, 24.0);
  const auto opts = hmat_options(1e-6);
  const auto& root = fx.tree->node(fx.tree->root());
  auto gen = fx.generator();
  auto a = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[0],
                                       gen, opts);
  auto b = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[1],
                                       gen, opts);
  auto c = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[1],
                                       gen, opts);

  auto full = fx.dense_permuted();
  const auto& c0 = fx.tree->node(root.child[0]);
  const auto& c1 = fx.tree->node(root.child[1]);
  auto c_ref = Matrix<double>::from_view(
      full.block(c0.offset, c1.offset, c0.size, c1.size));
  la::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                   full.block(c0.offset, c0.offset, c0.size, c0.size),
                   full.block(c0.offset, c1.offset, c0.size, c1.size), 1.0,
                   c_ref.view());

  hmat::hgemm(-1.0, a, b, c, TruncationParams{1e-6, -1});
  EXPECT_LT(rel_diff<double>(c.to_dense().cview(), c_ref.cview()), 1e-4);
}

TEST(Hgemm, ZeroAlphaIsNoOp) {
  HmatFixture<double> fx(200);
  auto a = fx.build(hmat_options(1e-6));
  auto c = fx.build(hmat_options(1e-6));
  auto before = c.to_dense();
  hmat::hgemm(0.0, a, a, c, TruncationParams{1e-6, -1});
  EXPECT_EQ(rel_diff<double>(c.to_dense().cview(), before.cview()), 0.0);
}

// --- H-TRSM ------------------------------------------------------------------

TEST(Htrsm, DenseSolvesMatchTriangularFactors) {
  HmatFixture<double> fx(300);
  auto h = fx.build(hmat_options(kEps));
  ASSERT_EQ(hmat::hlu(h, TruncationParams{kEps, -1}), 0);

  // Extract L and U densely from the factored H-matrix.
  auto lu = h.to_dense();
  Matrix<double> l(300, 300), u(300, 300);
  for (index_t j = 0; j < 300; ++j) {
    l(j, j) = 1.0;
    for (index_t i = j + 1; i < 300; ++i) l(i, j) = lu(i, j);
    for (index_t i = 0; i <= j; ++i) u(i, j) = lu(i, j);
  }

  auto b = Matrix<double>::random(300, 2, 51);
  auto x = Matrix<double>::from_view(b.cview());
  hmat::solve_lower_left(h, x.view());
  Matrix<double> recon(300, 2);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, l.cview(), x.cview(), 0.0,
           recon.view());
  EXPECT_LT(rel_diff<double>(recon.cview(), b.cview()), 1e-10);

  auto x2 = Matrix<double>::from_view(b.cview());
  hmat::solve_upper_left(h, x2.view());
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, u.cview(), x2.cview(), 0.0,
           recon.view());
  EXPECT_LT(rel_diff<double>(recon.cview(), b.cview()), 1e-9);

  auto x3 = Matrix<double>::from_view(b.cview());
  hmat::solve_upper_conjtrans_left(h, x3.view());
  la::gemm(Op::ConjTrans, Op::NoTrans, 1.0, u.cview(), x3.cview(), 0.0,
           recon.view());
  EXPECT_LT(rel_diff<double>(recon.cview(), b.cview()), 1e-9);
}

TEST(Htrsm, UpperRightDenseSolve) {
  HmatFixture<double> fx(250);
  auto h = fx.build(hmat_options(kEps));
  ASSERT_EQ(hmat::hlu(h, TruncationParams{kEps, -1}), 0);
  auto lu = h.to_dense();
  Matrix<double> u(250, 250);
  for (index_t j = 0; j < 250; ++j)
    for (index_t i = 0; i <= j; ++i) u(i, j) = lu(i, j);

  auto b = Matrix<double>::random(3, 250, 61);
  auto x = Matrix<double>::from_view(b.cview());
  hmat::solve_upper_right_dense(h, x.view());
  Matrix<double> recon(3, 250);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, x.cview(), u.cview(), 0.0,
           recon.view());
  EXPECT_LT(rel_diff<double>(recon.cview(), b.cview()), 1e-9);
}

}  // namespace
}  // namespace hcham
