// Stress and property tests: randomized task DAGs executed by the real
// engine vs a sequential referee, engine-vs-simulator consistency, and the
// H-matrix AXPY utility.
#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>

#include "common/rng.hpp"
#include "hmat_test_utils.hpp"
#include "hmatrix/haxpy.hpp"
#include "runtime/engine.hpp"
#include "runtime/simulator.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using rt::Engine;
using rt::SchedulerPolicy;
using hcham::testing::HmatFixture;
using hcham::testing::hmat_options;
using hcham::testing::rel_diff;

/// Random DAG over `cells` shared registers: each task reads up to 3
/// random cells and read-modify-writes one, applying a deterministic
/// update. Any dependency-respecting execution gives the same final state.
class RandomDagStress
    : public ::testing::TestWithParam<std::tuple<SchedulerPolicy, int>> {};

TEST_P(RandomDagStress, ParallelMatchesSequentialReferee) {
  auto [policy, workers] = GetParam();
  constexpr int kCells = 12;
  constexpr int kTasks = 500;

  // Deterministic task plan (shared by both executions).
  struct Plan {
    int reads[3];
    int num_reads;
    int target;
    double coeff;
  };
  std::vector<Plan> plan;
  Rng rng(987);
  for (int t = 0; t < kTasks; ++t) {
    Plan p;
    p.num_reads = static_cast<int>(rng.uniform_index(3)) + 1;
    for (int r = 0; r < p.num_reads; ++r)
      p.reads[r] = static_cast<int>(rng.uniform_index(kCells));
    p.target = static_cast<int>(rng.uniform_index(kCells));
    p.coeff = rng.uniform(0.1, 0.9);
    plan.push_back(p);
  }

  auto apply = [&](std::vector<double>& cells, const Plan& p) {
    double acc = 0;
    for (int r = 0; r < p.num_reads; ++r) acc += cells[p.reads[r]];
    cells[p.target] = 0.5 * cells[p.target] + p.coeff * acc + 1.0;
  };

  // Sequential referee.
  std::vector<double> ref(kCells, 1.0);
  for (const Plan& p : plan) apply(ref, p);

  // Parallel execution.
  Engine eng({.num_workers = workers, .policy = policy});
  std::vector<rt::Handle> handles;
  for (int i = 0; i < kCells; ++i) handles.push_back(eng.register_data());
  std::vector<double> cells(kCells, 1.0);
  for (const Plan& p : plan) {
    std::vector<rt::Access> acc;
    for (int r = 0; r < p.num_reads; ++r)
      acc.push_back(rt::read(handles[p.reads[r]]));
    acc.push_back(rt::readwrite(handles[p.target]));
    eng.submit([&cells, &apply, &p] { apply(cells, p); }, std::move(acc),
               static_cast<int>(p.coeff * 10));
  }
  eng.wait_all();

  for (int i = 0; i < kCells; ++i)
    EXPECT_DOUBLE_EQ(cells[i], ref[i])
        << "cell " << i << " policy " << rt::to_string(policy) << " workers "
        << workers;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagStress,
    ::testing::Combine(::testing::Values(SchedulerPolicy::WorkStealing,
                                         SchedulerPolicy::LocalityWorkStealing,
                                         SchedulerPolicy::Priority),
                       ::testing::Values(2, 4, 8)));

TEST(SimulatorConsistency, SingleWorkerReplayMatchesMeasuredTotal) {
  // The 1-worker simulated makespan with zero overhead must equal the sum
  // of the measured durations, for any graph the engine produced.
  Engine eng;
  auto h1 = eng.register_data();
  auto h2 = eng.register_data();
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const int spin = static_cast<int>(rng.uniform_index(500)) + 10;
    eng.submit(
        [spin] {
          volatile double x = 1.0;
          for (int k = 0; k < spin; ++k) x = x * 1.0000001;
        },
        {i % 2 == 0 ? rt::readwrite(h1) : rt::readwrite(h2)});
  }
  eng.wait_all();
  auto g = eng.graph();
  auto r = rt::simulate(g, SchedulerPolicy::Priority, 1, rt::SimParams{0, 0});
  EXPECT_NEAR(r.makespan_s, g.total_work_s(), 1e-12);
}

/// Multi-epoch drain with concurrent nested sub-epochs (DESIGN.md section
/// 11): successive parent epochs each run several tile-like tasks that
/// open forced-parallel sub-epochs with private random DAGs, interleaved
/// with ordinary dependent tasks, so pool workers steal across several
/// live sub-epochs while the parent graph is still draining. Every cell
/// must match the sequential referee in every epoch — and the engine must
/// drain cleanly every time (this is the ASan/UBSan soak for the nested
/// ownership and steal protocol).
TEST(NestedStress, MultiEpochDrainWithConcurrentSubEpochs) {
  hcham::testing::ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  constexpr int kEpochs = 8;
  constexpr int kParents = 6;
  constexpr int kCells = 4;
  constexpr int kNestedTasks = 40;

  struct Step {
    int src;
    int dst;
    double coeff;
  };
  auto draw_plan = [](Rng& rng) {
    std::vector<Step> plan;
    for (int t = 0; t < kNestedTasks; ++t) {
      const int src = static_cast<int>(rng.uniform_index(kCells));
      int dst = static_cast<int>(rng.uniform_index(kCells));
      if (dst == src) dst = (dst + 1) % kCells;
      plan.push_back(Step{src, dst, rng.uniform(0.1, 0.9)});
    }
    return plan;
  };
  auto apply = [](std::vector<double>& cells, const Step& s) {
    cells[static_cast<std::size_t>(s.dst)] +=
        s.coeff * cells[static_cast<std::size_t>(s.src)];
  };

  for (const SchedulerPolicy policy :
       {SchedulerPolicy::WorkStealing, SchedulerPolicy::Priority}) {
    Engine eng({.num_workers = 4, .policy = policy});
    for (int e = 0; e < kEpochs; ++e) {
      std::vector<std::vector<double>> cells(
          kParents, std::vector<double>(kCells, 1.0));
      std::vector<std::vector<Step>> plans;
      for (int p = 0; p < kParents; ++p) {
        Rng rng(static_cast<std::uint64_t>(1000 * e + p + 1));
        plans.push_back(draw_plan(rng));
      }

      // Per-parent: a pre-task, the sub-epoch task, and a post-task chained
      // on one handle, so nested stealing overlaps normal epoch scheduling.
      std::vector<int> post_ran(kParents, 0);
      for (int p = 0; p < kParents; ++p) {
        auto h = eng.register_data();
        eng.submit([] {}, {rt::readwrite(h)}, 1, "pre");
        eng.submit(
            [&eng, &cells, &plans, &apply, p] {
              rt::NestedEpoch ep(eng, 0.0);
              auto a = ep.register_data();
              for (const Step& s : plans[static_cast<std::size_t>(p)])
                ep.submit(
                    [&cells, &apply, p, s] {
                      apply(cells[static_cast<std::size_t>(p)], s);
                    },
                    {rt::readwrite(a)});
              ep.wait();
            },
            {rt::readwrite(h)}, 2, "sub-epoch");
        eng.submit([&post_ran, p] { post_ran[static_cast<std::size_t>(p)] = 1; },
                   {rt::read(h)}, 0, "post");
      }
      eng.wait_all();

      for (int p = 0; p < kParents; ++p) {
        std::vector<double> ref(kCells, 1.0);
        for (const Step& s : plans[static_cast<std::size_t>(p)]) apply(ref, s);
        EXPECT_EQ(post_ran[static_cast<std::size_t>(p)], 1);
        for (int i = 0; i < kCells; ++i)
          EXPECT_DOUBLE_EQ(cells[static_cast<std::size_t>(p)]
                                [static_cast<std::size_t>(i)],
                           ref[static_cast<std::size_t>(i)])
              << "epoch " << e << " parent " << p << " cell " << i
              << " policy " << rt::to_string(policy);
      }
    }
  }
}

TEST(Haxpy, MatchingStructures) {
  HmatFixture<double> fx(400);
  auto a = fx.build(hmat_options(1e-8));
  auto b = fx.build(hmat_options(1e-8));
  auto expected = b.to_dense();
  la::axpy(-0.5, a.to_dense().cview(), expected.view());
  hmat::haxpy(-0.5, a, b, rk::TruncationParams{1e-10, -1});
  EXPECT_LT(rel_diff<double>(b.to_dense().cview(), expected.cview()), 1e-8);
}

TEST(Haxpy, MismatchedStructures) {
  // A built with strong admissibility, B with none (all dense): the
  // fallback paths must still produce the right sum.
  HmatFixture<double> fx(300);
  auto a = fx.build(hmat_options(1e-8));
  hmat::HMatrixOptions dense_opts;
  dense_opts.admissibility = cluster::AdmissibilityCondition::none();
  auto b = hmat::build_hmatrix<double>(fx.tree, fx.tree->root(),
                                       fx.tree->root(), fx.generator(),
                                       dense_opts);
  auto expected = b.to_dense();
  la::axpy(2.0, a.to_dense().cview(), expected.view());
  hmat::haxpy(2.0, a, b, rk::TruncationParams{1e-10, -1});
  EXPECT_LT(rel_diff<double>(b.to_dense().cview(), expected.cview()), 1e-8);
}

TEST(Haxpy, SubdividedOntoRkLeaf) {
  // A (H, subdivided off-diagonal block) added onto B built with weak
  // admissibility (single Rk leaf at the same position).
  HmatFixture<double> fx(600, 32, 16.0);
  const auto& root = fx.tree->node(fx.tree->root());
  auto a = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[1],
                                       fx.generator(), hmat_options(1e-8));
  hmat::HMatrixOptions weak;
  weak.admissibility = cluster::AdmissibilityCondition::weak();
  weak.compression.eps = 1e-8;
  auto b = hmat::build_hmatrix<double>(fx.tree, root.child[0], root.child[1],
                                       fx.generator(), weak);
  auto expected = b.to_dense();
  la::axpy(1.0, a.to_dense().cview(), expected.view());
  hmat::haxpy(1.0, a, b, rk::TruncationParams{1e-8, -1});
  EXPECT_LT(rel_diff<double>(b.to_dense().cview(), expected.cview()), 1e-6);
}

TEST(Haxpy, SelfCancellation) {
  HmatFixture<double> fx(300);
  auto a = fx.build(hmat_options(1e-8));
  auto b = fx.build(hmat_options(1e-8));
  hmat::haxpy(-1.0, a, b, rk::TruncationParams{1e-12, -1});
  EXPECT_LT(b.norm_fro(), 1e-10 * a.norm_fro());
}

}  // namespace
}  // namespace hcham
