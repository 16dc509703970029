// End-to-end tests of the Tile-H matrix (H-Chameleon): construction,
// approximation, compression, task-parallel LU and solve across scheduler
// policies, matvec, and forward error at the paper's accuracy.
#include <gtest/gtest.h>

#include <cstring>

#include "bem/testcase.hpp"
#include "core/hchameleon.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using la::Matrix;
using la::Op;
using rt::Engine;
using rt::SchedulerPolicy;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

TileHOptions make_options(index_t nb, double eps) {
  TileHOptions opts;
  opts.tile_size = nb;
  opts.clustering.leaf_size = 32;
  opts.hmatrix.compression.eps = eps;
  return opts;
}

template <typename T>
struct TileHSetup {
  FemBemProblem<T> problem;
  Engine engine;

  explicit TileHSetup(index_t n, int workers = 1)
      : problem(n, 1.0, 8.0), engine(rt::Engine::Options{workers}) {}

  auto gen() const {
    const FemBemProblem<T>* p = &problem;
    return [p](index_t i, index_t j) { return p->entry(i, j); };
  }

  TileHMatrix<T> build(index_t nb, double eps) {
    return TileHMatrix<T>::build(engine, problem.points(), gen(),
                                 make_options(nb, eps));
  }
};

TEST(TileH, GridShapeMatchesClustering) {
  TileHSetup<double> s(600);
  auto m = s.build(128, 1e-6);
  EXPECT_EQ(m.size(), 600);
  EXPECT_EQ(m.num_tiles(), 5);  // ceil(600/128)
  EXPECT_EQ(m.desc().nt(), 5);
  EXPECT_EQ(m.block(0, 0).rows(), 128);
  EXPECT_EQ(m.block(4, 4).rows(), 600 - 4 * 128);
}

TEST(TileH, ApproximatesKernelMatrix) {
  TileHSetup<double> s(500);
  auto m = s.build(128, 1e-6);
  auto exact = s.problem.dense();
  EXPECT_LT(rel_diff<double>(m.to_dense_original().cview(), exact.cview()),
            1e-4);
}

TEST(TileH, ComplexApproximation) {
  TileHSetup<zdouble> s(400);
  auto m = s.build(128, 1e-6);
  auto exact = s.problem.dense();
  EXPECT_LT(rel_diff<zdouble>(m.to_dense_original().cview(), exact.cview()),
            1e-4);
}

TEST(TileH, CompressesLargeProblems) {
  TileHSetup<double> s(3000);
  auto m = s.build(512, 1e-4);
  EXPECT_LT(m.compression_ratio(), 0.55);
}

TEST(TileH, OffDiagonalTilesCompressBetter) {
  TileHSetup<double> s(1024);
  auto m = s.build(256, 1e-4);
  const auto& far = m.block(0, 3);
  const auto& diag = m.block(0, 0);
  EXPECT_LT(far.compression_ratio(), diag.compression_ratio());
}

TEST(TileH, MatvecMatchesDense) {
  TileHSetup<double> s(450);
  auto m = s.build(128, 1e-8);
  auto exact = s.problem.dense();
  Rng rng(3);
  std::vector<double> x(450), y(450, 1.0), y_ref(450, 1.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  m.matvec(2.0, x.data(), -1.0, y.data());
  la::gemv<double>(Op::NoTrans, 2.0, exact.cview(), x.data(), -1.0,
                   y_ref.data());
  double err = 0, ref = 0;
  for (index_t i = 0; i < 450; ++i) {
    err += (y[i] - y_ref[i]) * (y[i] - y_ref[i]);
    ref += y_ref[i] * y_ref[i];
  }
  EXPECT_LT(std::sqrt(err / ref), 1e-6);
}

// deep_copy feeds the refactorization paths (UpdatableOperator): the copy
// must carry the same structure and bit-identical values, and factorizing
// it must leave the source untouched. norm_fro (the refinement auto
// target's ||A||_F) must match the dense norm of the compressed tiles.
TEST(TileH, DeepCopyPreservesStructureValuesAndNorm) {
  TileHSetup<double> s(384, 2);
  auto m = s.build(128, 1e-8);
  const Matrix<double> before = m.to_dense_original();
  auto copy = m.deep_copy(s.engine);
  EXPECT_EQ(copy.structure_signature(), m.structure_signature());
  EXPECT_EQ(copy.stored_elements(), m.stored_elements());
  const Matrix<double> copied = copy.to_dense_original();
  EXPECT_EQ(std::memcmp(copied.data(), before.data(),
                        sizeof(double) * static_cast<std::size_t>(384 * 384)),
            0);
  const double fro = la::norm_fro(before.cview());
  EXPECT_NEAR(static_cast<double>(m.norm_fro()), fro, 1e-10 * fro);

  copy.factorize(s.engine);
  const Matrix<double> after = m.to_dense_original();
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        sizeof(double) * static_cast<std::size_t>(384 * 384)),
            0);
}

TEST(TileH, ComplexMatvecMatchesDense) {
  TileHSetup<zdouble> s(400);
  auto m = s.build(128, 1e-8);
  auto exact = s.problem.dense();
  auto x = Matrix<zdouble>::random(400, 1, 4);
  auto y = Matrix<zdouble>::random(400, 1, 5);
  auto y_ref = Matrix<zdouble>::from_view(y.cview());
  const zdouble alpha(2.0, -1.0), beta(0.5, 0.5);
  m.matvec(alpha, x.data(), beta, y.data());
  la::gemv<zdouble>(Op::NoTrans, alpha, exact.cview(), x.data(), beta,
                    y_ref.data());
  EXPECT_LT(rel_diff<zdouble>(y.cview(), y_ref.cview()), 1e-6);
}

class TileHPolicies : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(TileHPolicies, FactorizeAndSolve) {
  FemBemProblem<double> problem(700, 1.0, 8.0);
  Engine engine({.num_workers = 4, .policy = GetParam()});
  const auto* p = &problem;
  auto gen = [p](index_t i, index_t j) { return p->entry(i, j); };
  auto m = TileHMatrix<double>::build(engine, problem.points(), gen,
                                      make_options(128, 1e-8));
  // RHS from a known solution, via the COMPRESSED operator.
  Rng rng(9);
  std::vector<double> x0(700);
  for (auto& v : x0) v = rng.uniform(-1, 1);
  std::vector<double> b(700, 0.0);
  m.matvec(1.0, x0.data(), 0.0, b.data());

  m.factorize(engine);
  la::MatrixView<double> bv(b.data(), 700, 1, 700);
  m.solve(engine, bv);

  double err = 0, ref = 0;
  for (index_t i = 0; i < 700; ++i) {
    err += (b[i] - x0[i]) * (b[i] - x0[i]);
    ref += x0[i] * x0[i];
  }
  EXPECT_LT(std::sqrt(err / ref), 1e-4) << rt::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, TileHPolicies,
                         ::testing::Values(SchedulerPolicy::WorkStealing,
                                           SchedulerPolicy::LocalityWorkStealing,
                                           SchedulerPolicy::Priority));

TEST(TileH, ForwardErrorAtPaperAccuracy) {
  // eps = 1e-4 as in Fig. 5: forward error stays in the same magnitude.
  TileHSetup<double> s(800, 2);
  auto m = s.build(256, 1e-4);
  auto m2 = s.build(256, 1e-4);  // unfactored copy for the exact matvec
  m.factorize(s.engine);
  const double err = core::forward_error_solve(
      m, s.engine,
      [&m2](const double* x, double* y) { m2.matvec(1.0, x, 0.0, y); }, 42);
  EXPECT_LT(err, 5e-3);
}

TEST(TileH, ComplexFactorizeAndSolve) {
  TileHSetup<zdouble> s(500, 2);
  auto m = s.build(128, 1e-8);
  Rng rng(11);
  std::vector<zdouble> x0(500);
  for (auto& v : x0) v = rng.scalar<zdouble>();
  std::vector<zdouble> b(500, zdouble{});
  m.matvec(zdouble(1), x0.data(), zdouble(0), b.data());
  m.factorize(s.engine);
  la::MatrixView<zdouble> bv(b.data(), 500, 1, 500);
  m.solve(s.engine, bv);
  double err = 0, ref = 0;
  for (index_t i = 0; i < 500; ++i) {
    err += abs_sq(b[static_cast<std::size_t>(i)] -
                  x0[static_cast<std::size_t>(i)]);
    ref += abs_sq(x0[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(std::sqrt(err / ref), 1e-4);
}

TEST(TileH, LuTaskCountFollowsAlgorithm1) {
  TileHSetup<double> s(640);
  auto m = s.build(128, 1e-4);
  const index_t before = s.engine.num_tasks();
  m.factorize_submit(s.engine);
  const index_t nt = m.num_tiles();  // 5
  index_t expected = 0;
  for (index_t k = 0; k < nt; ++k) {
    const index_t r = nt - k - 1;
    expected += 1 + 2 * r + r * r;
  }
  EXPECT_EQ(s.engine.num_tasks() - before, expected);
  s.engine.wait_all();
}

TEST(TileH, TileSizeSweepPreservesAccuracy) {
  // Fig. 4/5 property: the tile size changes structure and compression but
  // not the approximation quality.
  TileHSetup<double> s(600);
  auto exact = s.problem.dense();
  for (index_t nb : {100, 200, 300, 600}) {
    auto m = s.build(nb, 1e-6);
    EXPECT_LT(rel_diff<double>(m.to_dense_original().cview(), exact.cview()),
              1e-4)
        << "nb=" << nb;
  }
}

}  // namespace
}  // namespace hcham
