// Unit tests for the dense Matrix container and views, and for the
// pooled scratch arenas (la/workspace.hpp) the dense kernels carve from.
#include <gtest/gtest.h>

#include "la/la.hpp"
#include "la/workspace.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::ConstMatrixView;
using la::Matrix;
using la::MatrixView;
using hcham::testing::zdouble;

TEST(Matrix, DefaultIsEmpty) {
  Matrix<double> m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructionZeroInitializes) {
  Matrix<double> m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix<double> m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
}

TEST(Matrix, IdentityAndFill) {
  Matrix<double> m(3, 3);
  m.set_identity();
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), i == j ? 1.0 : 0.0);
  m.fill(7.5);
  EXPECT_EQ(m(2, 1), 7.5);
}

TEST(Matrix, RectangularIdentity) {
  Matrix<double> m(2, 4);
  m.set_identity();
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(1, 1), 1.0);
  EXPECT_EQ(m(1, 3), 0.0);
}

TEST(Matrix, RandomIsDeterministic) {
  auto a = Matrix<double>::random(5, 5, 42);
  auto b = Matrix<double>::random(5, 5, 42);
  auto c = Matrix<double>::random(5, 5, 43);
  EXPECT_EQ(hcham::testing::rel_diff<double>(a.cview(), b.cview()), 0.0);
  EXPECT_GT(hcham::testing::rel_diff<double>(a.cview(), c.cview()), 0.0);
}

TEST(Matrix, RandomEntriesInRange) {
  auto a = Matrix<zdouble>::random(10, 10, 7);
  for (index_t j = 0; j < 10; ++j) {
    for (index_t i = 0; i < 10; ++i) {
      EXPECT_LT(std::abs(a(i, j).real()), 1.0);
      EXPECT_LT(std::abs(a(i, j).imag()), 1.0);
    }
  }
}

TEST(MatrixView, BlockAddressesSubmatrix) {
  auto m = Matrix<double>::random(6, 6, 1);
  MatrixView<double> blk = m.block(1, 2, 3, 2);
  EXPECT_EQ(blk.rows(), 3);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_EQ(blk.ld(), 6);
  EXPECT_EQ(blk(0, 0), m(1, 2));
  EXPECT_EQ(blk(2, 1), m(3, 3));
  blk(1, 1) = 99.0;
  EXPECT_EQ(m(2, 3), 99.0);
}

TEST(MatrixView, NestedBlocks) {
  auto m = Matrix<double>::random(8, 8, 2);
  auto outer = m.block(2, 2, 5, 5);
  auto inner = outer.block(1, 1, 2, 2);
  EXPECT_EQ(inner(0, 0), m(3, 3));
}

TEST(MatrixView, CopyBetweenStrides) {
  auto m = Matrix<double>::random(6, 6, 3);
  Matrix<double> dst(3, 3);
  la::copy<double>(m.block(2, 1, 3, 3), dst.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(dst(i, j), m(2 + i, 1 + j));
}

TEST(MatrixView, CopyShapeMismatchThrows) {
  Matrix<double> a(2, 3), b(3, 2);
  EXPECT_THROW(la::copy<double>(a.cview(), b.view()), Error);
}

TEST(Matrix, FromView) {
  auto m = Matrix<double>::random(5, 4, 9);
  auto copy = Matrix<double>::from_view(m.block(1, 1, 3, 2));
  EXPECT_EQ(copy.rows(), 3);
  EXPECT_EQ(copy.cols(), 2);
  EXPECT_EQ(copy(0, 0), m(1, 1));
}

TEST(Matrix, ResetDiscardsAndZeroes) {
  auto m = Matrix<double>::random(3, 3, 5);
  m.reset(4, 2);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m(3, 1), 0.0);
}

TEST(Norms, FrobeniusMatchesHandComputed) {
  Matrix<double> m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(la::norm_fro(m.cview()), 5.0);
}

TEST(Norms, FrobeniusComplex) {
  Matrix<zdouble> m(1, 1);
  m(0, 0) = zdouble(3, 4);
  EXPECT_DOUBLE_EQ(la::norm_fro(m.cview()), 5.0);
}

TEST(Norms, MaxNorm) {
  auto m = Matrix<double>::random(4, 4, 11);
  m(2, 3) = -8.0;
  EXPECT_DOUBLE_EQ(la::norm_max(m.cview()), 8.0);
}

TEST(Norms, ScalingAvoidsOverflow) {
  Matrix<double> m(2, 1);
  m(0, 0) = 1e200;
  m(1, 0) = 1e200;
  EXPECT_NEAR(la::norm_fro(m.cview()) / (std::sqrt(2.0) * 1e200), 1.0, 1e-14);
}

TEST(Norms, DotcConjugatesFirstArgument) {
  zdouble x[2] = {zdouble(0, 1), zdouble(1, 0)};
  zdouble y[2] = {zdouble(0, 1), zdouble(2, 0)};
  const zdouble d = la::dotc<zdouble>(2, x, y);
  EXPECT_DOUBLE_EQ(d.real(), 3.0);
  EXPECT_DOUBLE_EQ(d.imag(), 0.0);
}

TEST(Workspace, ReleasedLeaseIsReusedByTheNextOne) {
  // The pool (not a thread_local) is what keeps arenas warm across the
  // engine's per-epoch worker threads: a lease hands its arena back on
  // destruction and the next checkout gets it again.
  EXPECT_EQ(la::tls_workspace(), nullptr);
  la::Workspace* first = nullptr;
  {
    la::WorkspaceLease lease;
    first = la::tls_workspace();
    ASSERT_NE(first, nullptr);
  }
  EXPECT_EQ(la::tls_workspace(), nullptr);
  la::WorkspaceLease again;
  EXPECT_EQ(la::tls_workspace(), first);
}

TEST(Workspace, NestedLeasesBindDistinctArenasAndRestore) {
  la::WorkspaceLease outer;
  la::Workspace* const outer_ws = la::tls_workspace();
  {
    la::WorkspaceLease inner;
    EXPECT_NE(la::tls_workspace(), outer_ws);
    EXPECT_NE(la::tls_workspace(), nullptr);
  }
  EXPECT_EQ(la::tls_workspace(), outer_ws);
}

TEST(Workspace, ScopesReleaseToTheirMarkInStackOrder) {
  la::WorkspaceLease lease;
  la::Workspace& ws = *la::tls_workspace();
  la::WorkspaceScope outer;
  double* const kept = outer.alloc<double>(100);
  std::uintptr_t sibling[2] = {0, 0};
  std::size_t chunks_after_first = 0;
  for (int k = 0; k < 2; ++k) {
    la::WorkspaceScope inner;
    sibling[k] = reinterpret_cast<std::uintptr_t>(inner.alloc<double>(1000));
    EXPECT_EQ(sibling[k] % la::Workspace::kAlign, 0u);
    if (k == 0) chunks_after_first = ws.num_chunks();
  }
  // The second scope reuses the bytes the first one released, past the
  // outer scope's live allocation, without growing the arena.
  EXPECT_EQ(sibling[0], sibling[1]);
  EXPECT_GE(sibling[0], reinterpret_cast<std::uintptr_t>(kept + 100));
  EXPECT_EQ(ws.num_chunks(), chunks_after_first);
}

}  // namespace
}  // namespace hcham
