// Nested sub-epoch unit tests (DESIGN.md section 11): the heuristic gate
// (flops threshold, occupancy/parked-worker check, HCHAM_NESTED_DISABLE,
// the threshold against a real coarse Tile-H LU), STF inference inside a
// sub-epoch, error propagation to the parent epoch, nested fault
// injection, and workspace-arena availability when a thief executes a
// nested task.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bem/testcase.hpp"
#include "common/counters.hpp"
#include "core/tile_h.hpp"
#include "la/workspace.hpp"
#include "runtime/engine.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using rt::Engine;
using rt::NestedEpoch;
using rt::read;
using rt::readwrite;

// The nested gate reads its knobs per construction.
using hcham::testing::ScopedEnv;

/// Spin until `flag` is set or ~5 s elapse; returns whether it was set.
/// Used to force cross-worker interleavings without risking a hang.
bool spin_until(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Construct a NestedEpoch with `est_flops` inside a parent tile task on a
/// `workers`-wide engine (the parent epoch holds only that task, so every
/// other worker is idle) and report which mode the gate picked.
bool gate_decision(int workers, double est_flops) {
  Engine eng({.num_workers = workers});
  auto h = eng.register_data();
  bool parallel = false;
  eng.submit(
      [&eng, &parallel, est_flops] {
        NestedEpoch ep(eng, est_flops);
        parallel = ep.parallel();
      },
      {readwrite(h)});
  eng.wait_all();
  return parallel;
}

TEST(NestedGate, LargeTileOnIdlePoolGoesParallel) {
  EXPECT_TRUE(gate_decision(4, 1.0e9));
}

TEST(NestedGate, FlopsBelowThresholdStaysInline) {
  EXPECT_FALSE(gate_decision(4, 1.0e3));
}

TEST(NestedGate, ThresholdIsTunable) {
  // The threshold is the constant rt::kNestedMinFlops: an estimate equal
  // to it opens the gate, the next double below it does not.
  EXPECT_TRUE(gate_decision(4, rt::kNestedMinFlops));
  EXPECT_FALSE(gate_decision(4, std::nextafter(rt::kNestedMinFlops, 0.0)));
}

TEST(NestedGate, CoarseTileHLuOpensTheGateUnforced) {
  // Real tile sizes against the constant threshold: a 2x2 Tile-H LU of
  // N = 1200 on 4 workers starts with one 600x600 H-GETRF and three idle
  // workers, so the size/occupancy gate must open without
  // HCHAM_NESTED_FORCE.
  const index_t n = 1200;
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  core::TileHOptions opts;
  opts.tile_size = n / 2;
  opts.clustering.leaf_size = 64;
  opts.hmatrix.compression.eps = 1e-4;
  Engine eng({.num_workers = 4});
  auto a = core::TileHMatrix<double>::build(eng, problem.points(), gen, opts);
  reset_runtime_counters();
  a.factorize(eng);
  EXPECT_GT(snapshot_runtime_counters().nested_epochs, 0u);
}

TEST(NestedGate, DisableEnvWins) {
  ScopedEnv disable("HCHAM_NESTED_DISABLE", "1");
  EXPECT_FALSE(gate_decision(4, 1.0e9));
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  EXPECT_FALSE(gate_decision(4, 1.0e9));  // disable beats force
}

TEST(NestedGate, MainThreadStaysInline) {
  Engine eng({.num_workers = 4});
  NestedEpoch ep(eng, 1.0e9);
  EXPECT_FALSE(ep.parallel());
  EXPECT_FALSE(eng.on_worker_thread());
}

TEST(NestedGate, SequentialEngineStaysInline) {
  // A 1-worker epoch runs on the calling thread and publishes no pool
  // context (nobody could steal), so the gate must keep the sub-epoch
  // inline.
  EXPECT_FALSE(gate_decision(1, 1.0e9));
}

TEST(NestedGate, SaturatedPoolStaysInline) {
  // Two workers, both running a probe task, two more parent tasks queued:
  // no parked worker and more ready tasks than free workers, so splitting
  // a tile would help nobody. Both probes must see a closed gate.
  Engine eng({.num_workers = 2});
  std::atomic<int> started{0};
  std::atomic<int> judged{0};
  std::atomic<bool> both_started{false};
  std::atomic<bool> both_judged{false};
  std::atomic<bool> timed_out{false};
  bool parallel[2] = {true, true};
  auto probe = [&](int slot) {
    if (started.fetch_add(1) + 1 == 2) both_started.store(true);
    if (!spin_until(both_started)) {
      timed_out.store(true);
      return;
    }
    NestedEpoch ep(eng, 1.0e9);
    parallel[slot] = ep.parallel();
    // Keep this worker pinned until the other probe has also judged its
    // gate: whichever probe finishes first would otherwise drain the
    // fillers below and open the gate for the slower one. Both workers
    // stay busy and both fillers stay queued for the whole window the
    // two probes measure.
    if (judged.fetch_add(1) + 1 == 2) both_judged.store(true);
    if (!spin_until(both_judged)) timed_out.store(true);
  };
  auto h0 = eng.register_data();
  auto h1 = eng.register_data();
  eng.submit([&probe] { probe(0); }, {readwrite(h0)}, 5, "probe");
  eng.submit([&probe] { probe(1); }, {readwrite(h1)}, 5, "probe");
  auto h2 = eng.register_data();
  auto h3 = eng.register_data();
  eng.submit([] {}, {readwrite(h2)}, 0, "filler");
  eng.submit([] {}, {readwrite(h3)}, 0, "filler");
  eng.wait_all();
  ASSERT_FALSE(timed_out.load());
  EXPECT_FALSE(parallel[0]);
  EXPECT_FALSE(parallel[1]);
}

TEST(NestedEpochTest, InlineModeRunsImmediatelyInOrder) {
  Engine eng;  // main thread: inline mode
  NestedEpoch ep(eng, 0.0);
  auto h = ep.register_data();
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    ep.submit([&order, i] { order.push_back(i); }, {readwrite(h)});
  // Inline tasks already ran, before wait().
  ASSERT_EQ(order.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  ep.wait();
  EXPECT_EQ(ep.num_tasks(), 4);
  EXPECT_FALSE(ep.parallel());
}

TEST(NestedEpochTest, ParallelModeInfersStfEdges) {
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  std::vector<int> order;
  index_t edges = -1, tasks = -1;
  eng.submit(
      [&] {
        NestedEpoch ep(eng, 0.0);
        ASSERT_TRUE(ep.parallel());
        auto a = ep.register_data();
        auto b = ep.register_data();
        // writer(a) -> two readers(a)+writers(b) -> writer(b): 2 + 2 edges.
        ep.submit([&order] { order.push_back(0); }, {readwrite(a)});
        ep.submit([&order] { order.push_back(1); }, {read(a), readwrite(b)});
        ep.submit([&order] { order.push_back(2); }, {read(a), readwrite(b)});
        ep.submit([&order] { order.push_back(3); }, {readwrite(b)});
        ep.wait();
        edges = ep.num_edges();
        tasks = ep.num_tasks();
      },
      {readwrite(h)});
  eng.wait_all();
  EXPECT_EQ(tasks, 4);
  EXPECT_EQ(edges, 4);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);  // the writer precedes its readers
  EXPECT_EQ(order.back(), 3);   // the final writer follows them
}

TEST(NestedEpochTest, ErrorPropagatesToParentEpoch) {
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  std::atomic<int> ran{0};
  eng.submit(
      [&] {
        NestedEpoch ep(eng, 0.0);
        auto a = ep.register_data();
        ep.submit([&ran] { ++ran; }, {readwrite(a)});
        ep.submit([] { throw Error("nested boom"); }, {readwrite(a)});
        ep.submit([&ran] { ++ran; }, {readwrite(a)});
        ep.wait();  // rethrows inside the parent task
      },
      {readwrite(h)});
  EXPECT_THROW(eng.wait_all(), Error);
  // The sub-epoch drained fully before rethrowing, and the engine stays
  // usable afterwards.
  EXPECT_EQ(ran.load(), 2);
  EXPECT_TRUE(eng.drained());
  auto h2 = eng.register_data();
  std::atomic<bool> again{false};
  eng.submit([&again] { again.store(true); }, {readwrite(h2)});
  eng.wait_all();
  EXPECT_TRUE(again.load());
}

TEST(NestedEpochTest, InlineErrorAlsoRethrownFromWait) {
  Engine eng;  // inline mode
  NestedEpoch ep(eng, 0.0);
  auto a = ep.register_data();
  std::atomic<int> ran{0};
  ep.submit([&ran] { ++ran; }, {readwrite(a)});
  ep.submit([] { throw Error("inline boom"); }, {readwrite(a)});
  ep.submit([&ran] { ++ran; }, {readwrite(a)});  // still runs (drain parity)
  EXPECT_THROW(ep.wait(), Error);
  EXPECT_EQ(ran.load(), 2);
}

TEST(NestedEpochTest, FaultInjectionDropsOneNestedEdge) {
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  // Drop the first nested edge: the 3-task RW chain keeps the remaining
  // edge, all tasks still run (pending counts stay consistent on a dropped
  // edge), and the edge tally reflects the drop.
  Engine eng({.num_workers = 2, .nested_fault_drop_edge = 0});
  auto h = eng.register_data();
  index_t edges = -1;
  std::atomic<int> ran{0};
  eng.submit(
      [&] {
        NestedEpoch ep(eng, 0.0);
        auto a = ep.register_data();
        for (int i = 0; i < 3; ++i)
          ep.submit([&ran] { ++ran; }, {readwrite(a)});
        ep.wait();
        edges = ep.num_edges();
      },
      {readwrite(h)});
  eng.wait_all();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(edges, 1);  // chain of 2, one dropped
}

TEST(NestedEpochTest, ThiefExecutesWithWorkspaceArena) {
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  // Deterministic steal: the owner pops nested task A (submitted first,
  // FIFO) and blocks in it until B reports in; only the second pool worker
  // can run B, from its idle-loop steal hook. B also checks it inherited a
  // workspace arena (the WorkspaceLease held by every pool worker), the
  // handoff the per-tile kernels rely on.
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  std::atomic<bool> b_ran{false};
  std::atomic<bool> b_had_arena{false};
  std::atomic<bool> timed_out{false};
  index_t stolen = -1;
  eng.submit(
      [&] {
        NestedEpoch ep(eng, 0.0);
        ASSERT_TRUE(ep.parallel());
        auto a = ep.register_data();
        auto b = ep.register_data();
        ep.submit(
            [&] {
              if (!spin_until(b_ran)) timed_out.store(true);
            },
            {readwrite(a)});
        ep.submit(
            [&] {
              b_had_arena.store(la::tls_workspace() != nullptr);
              b_ran.store(true);
            },
            {readwrite(b)});
        ep.wait();
        stolen = ep.stolen();
      },
      {readwrite(h)});
  eng.wait_all();
  ASSERT_FALSE(timed_out.load());
  EXPECT_TRUE(b_ran.load());
  EXPECT_TRUE(b_had_arena.load());
  EXPECT_EQ(stolen, 1);
}

TEST(NestedEpochTest, NestedInsideNestedStaysInline) {
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  bool outer_parallel = false;
  bool inner_parallel = true;
  eng.submit(
      [&] {
        NestedEpoch outer(eng, 0.0);
        outer_parallel = outer.parallel();
        auto a = outer.register_data();
        outer.submit(
            [&] {
              NestedEpoch inner(eng, 0.0);
              inner_parallel = inner.parallel();
              auto x = inner.register_data();
              inner.submit([] {}, {readwrite(x)});
              inner.wait();
            },
            {readwrite(a)});
        outer.wait();
      },
      {readwrite(h)});
  eng.wait_all();
  EXPECT_TRUE(outer_parallel);
  EXPECT_FALSE(inner_parallel);
}

TEST(NestedEpochTest, ManyConcurrentSubEpochs) {
  ScopedEnv force("HCHAM_NESTED_FORCE", "1");
  // Several parent tasks open sub-epochs at once; every nested task runs
  // exactly once despite cross-epoch stealing.
  Engine eng({.num_workers = 4});
  constexpr int kParents = 8;
  constexpr int kChain = 5;
  std::atomic<int> total{0};
  std::vector<rt::Handle> hs;
  for (int p = 0; p < kParents; ++p) hs.push_back(eng.register_data());
  for (int p = 0; p < kParents; ++p) {
    eng.submit(
        [&eng, &total] {
          NestedEpoch ep(eng, 0.0);
          auto a = ep.register_data();
          for (int i = 0; i < kChain; ++i)
            ep.submit([&total] { total.fetch_add(1); }, {readwrite(a)});
          ep.wait();
        },
        {readwrite(hs[static_cast<std::size_t>(p)])});
  }
  eng.wait_all();
  EXPECT_EQ(total.load(), kParents * kChain);
}

}  // namespace
}  // namespace hcham
