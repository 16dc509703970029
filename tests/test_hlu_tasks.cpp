// Fine-grain task-parallel H-LU (the HMAT baseline): must produce the same
// factors as the sequential recursive H-LU, under every scheduler and
// worker count, and must expose the characteristic dense dependency graph.
#include <gtest/gtest.h>

#include "core/hlu_tasks.hpp"
#include "hmat_test_utils.hpp"

namespace hcham {
namespace {

using core::HluTaskGraph;
using la::Matrix;
using rt::Engine;
using rt::SchedulerPolicy;
using hcham::testing::HmatFixture;
using hcham::testing::hmat_options;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

TEST(TaskHlu, MatchesSequentialHlu) {
  HmatFixture<double> fx(500);
  auto h_seq = fx.build(hmat_options(1e-8));
  auto h_task = fx.build(hmat_options(1e-8));
  ASSERT_EQ(hmat::hlu(h_seq, rk::TruncationParams{1e-8, -1}), 0);

  Engine eng({.num_workers = 4});
  core::task_hlu(eng, h_task, rk::TruncationParams{1e-8, -1});
  // Same algorithm, same rounding points -> near-identical factors.
  EXPECT_LT(rel_diff<double>(h_task.to_dense().cview(),
                             h_seq.to_dense().cview()),
            1e-10);
}

TEST(TaskHlu, JacobiConvergesInEveryTruncation) {
  HmatFixture<double> fx(500);
  auto h = fx.build(hmat_options(1e-8));
  reset_arith_counters();
  Engine eng({.num_workers = 2});
  core::task_hlu(eng, h, rk::TruncationParams{1e-8, -1});
  const ArithCounterSnapshot c = snapshot_arith_counters();
  EXPECT_GT(c.truncations, 0u);
  EXPECT_GT(c.svd_sweeps, 0u);
  EXPECT_EQ(c.svd_unconverged, 0u);
}

class TaskHluPolicies : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(TaskHluPolicies, SolveIsCorrect) {
  HmatFixture<double> fx(400);
  auto h = fx.build(hmat_options(1e-8));
  auto dense = fx.dense_permuted();
  Engine eng({.num_workers = 3, .policy = GetParam()});
  core::task_hlu(eng, h, rk::TruncationParams{1e-8, -1});

  auto x0 = Matrix<double>::random(400, 1, 5);
  Matrix<double> b(400, 1);
  la::gemm(la::Op::NoTrans, la::Op::NoTrans, 1.0, dense.cview(), x0.cview(),
           0.0, b.view());
  hmat::hlu_solve(h, b.view());
  EXPECT_LT(rel_diff<double>(b.cview(), x0.cview()), 1e-5)
      << rt::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, TaskHluPolicies,
                         ::testing::Values(SchedulerPolicy::WorkStealing,
                                           SchedulerPolicy::LocalityWorkStealing,
                                           SchedulerPolicy::Priority));

TEST(TaskHlu, ComplexMatrix) {
  HmatFixture<zdouble> fx(350);
  auto h = fx.build(hmat_options(1e-8));
  auto dense = fx.dense_permuted();
  Engine eng({.num_workers = 2});
  core::task_hlu(eng, h, rk::TruncationParams{1e-8, -1});
  auto x0 = Matrix<zdouble>::random(350, 1, 7);
  Matrix<zdouble> b(350, 1);
  la::gemm(la::Op::NoTrans, la::Op::NoTrans, zdouble(1), dense.cview(),
           x0.cview(), zdouble(0), b.view());
  hmat::hlu_solve(h, b.view());
  EXPECT_LT(rel_diff<zdouble>(b.cview(), x0.cview()), 1e-5);
}

TEST(TaskHlu, DagIsMuchDenserThanTileH) {
  // The paper's central structural observation: the fine-grain H-LU DAG
  // carries far more dependencies per task than the Tile-H one.
  HmatFixture<double> fx(800);
  auto h = fx.build(hmat_options(1e-4));
  Engine eng;
  HluTaskGraph<double> graph(eng, h, rk::TruncationParams{1e-4, -1});
  graph.submit();
  const double edges_per_task =
      static_cast<double>(eng.num_edges()) /
      static_cast<double>(eng.num_tasks());
  EXPECT_GT(eng.num_tasks(), 50);
  EXPECT_GT(edges_per_task, 2.0);
  eng.wait_all();
}

TEST(TaskHlu, SingleLeafMatrixDegeneratesToOneTask) {
  // Tiny problem: the whole matrix is one dense leaf.
  auto mesh = bem::make_cylinder(24);
  cluster::ClusteringOptions copts;
  copts.leaf_size = 32;
  auto tree = std::make_shared<const cluster::ClusterTree>(
      cluster::ClusterTree::build(mesh.points, copts));
  bem::FemBemProblem<double> prob(24);
  auto gen = [&prob](index_t i, index_t j) { return prob.entry(i, j); };
  auto h = hmat::build_hmatrix<double>(tree, tree->root(), tree->root(), gen,
                                       hmat_options(1e-6));
  Engine eng;
  HluTaskGraph<double> graph(eng, h, rk::TruncationParams{1e-6, -1});
  graph.submit();
  EXPECT_EQ(eng.num_tasks(), 1);
  eng.wait_all();
}

}  // namespace
}  // namespace hcham
