// Graph capture & replay regression tests (DESIGN.md section 10): engine
// capture/replay semantics, cache-key invalidation (a structural change
// must MISS, never replay a stale graph), the LRU eviction bound, the
// engine state kept between epochs (a captured epoch whose live records
// were dropped must not dangle; a long-lived engine stays bounded), and
// the serve-layer stats plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bem/testcase.hpp"
#include "core/tile_h.hpp"
#include "runtime/engine.hpp"
#include "runtime/graph_cache.hpp"
#include "serve/solver_service.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using rt::CapturedGraph;
using rt::Engine;
using rt::GraphCache;
using rt::Handle;

// HCHAM_REPLAY_DISABLE is read per epoch.
using hcham::testing::ScopedEnv;

// --- engine capture/replay semantics ---------------------------------------

TEST(GraphCapture, CapturesSlotsEdgesAndAccesses) {
  Engine eng({.num_workers = 2});
  const Handle a = eng.register_data("a");
  const Handle b = eng.register_data("b");
  ASSERT_TRUE(eng.begin_capture());
  EXPECT_TRUE(eng.capturing());
  eng.submit([] {}, {rt::readwrite(a)}, 0, "w0");
  eng.submit([] {}, {rt::read(a), rt::readwrite(b)}, 0, "w1");
  eng.submit([] {}, {rt::read(b)}, 0, "r2");
  eng.wait_all();
  auto g = eng.end_capture();
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(eng.capturing());
  EXPECT_EQ(g->count, 3);
  EXPECT_EQ(g->num_edges(), 2);  // 0 -> 1 -> 2
  EXPECT_EQ(g->pending0[0], 0);
  EXPECT_EQ(g->pending0[1], 1);
  EXPECT_EQ(g->pending0[2], 1);
  EXPECT_EQ(g->label[0], "w0");
  // Collapsed accesses: slot 1 reads a, writes b.
  EXPECT_EQ(g->acc_off[2] - g->acc_off[1], 2);
  EXPECT_EQ(g->max_handle, b.id);
}

TEST(GraphCapture, ReplayRunsBoundClosuresThroughTheCapturedDag) {
  // Chain through one cell: only the captured 0 -> 1 -> 2 order produces
  // ((1*2)+3)*5 = 25. Replay twice, on 1 and on 4 workers.
  for (const int workers : {1, 4}) {
    Engine eng({.num_workers = workers});
    const Handle h = eng.register_data();
    std::atomic<int> cell{0};
    ASSERT_TRUE(eng.begin_capture());
    eng.submit([&cell] { cell = 2; }, {rt::readwrite(h)});
    eng.submit([&cell] { cell += 3; }, {rt::readwrite(h)});
    eng.submit([&cell] { cell = cell * 5; }, {rt::readwrite(h)});
    eng.wait_all();
    auto g = eng.end_capture();
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(cell.load(), 25);
    for (int rep = 0; rep < 2; ++rep) {
      cell = 0;
      eng.begin_replay(g);
      EXPECT_TRUE(eng.replaying());
      eng.submit([&cell] { cell = 2; }, {});
      eng.submit([&cell] { cell += 3; }, {});
      eng.submit([&cell] { cell = cell * 5; }, {});
      eng.wait_all();
      EXPECT_EQ(cell.load(), 25) << "workers=" << workers << " rep=" << rep;
      EXPECT_FALSE(eng.replaying());
    }
    EXPECT_EQ(eng.replay_stats().captured, 1u);
    EXPECT_EQ(eng.replay_stats().replayed, 2u);
  }
}

TEST(GraphCapture, CaptureRefusedWhenArmedOrUndrained) {
  Engine eng({.num_workers = 1});
  ASSERT_TRUE(eng.begin_capture());
  EXPECT_FALSE(eng.begin_capture());  // already armed
  eng.submit([] {}, {});
  eng.wait_all();
  auto g = eng.end_capture();
  ASSERT_NE(g, nullptr);
  // end_capture with nothing armed: null, no crash.
  EXPECT_EQ(eng.end_capture(), nullptr);
}

TEST(GraphCapture, CaptureRefusedWhileNestedSubEpochLive) {
  // Regression: a live nested sub-epoch (DESIGN.md section 11) must make
  // begin_capture/begin_replay fail with a clean Error, not capture a
  // half-expanded graph. The sub-epoch counts as live from construction
  // until destruction, even after its own wait() drained it.
  Engine eng({.num_workers = 2});
  {
    rt::NestedEpoch ep(eng, 0.0);  // main thread: inline mode, still live
    EXPECT_THROW(eng.begin_capture(), Error);
    auto a = ep.register_data();
    ep.submit([] {}, {rt::readwrite(a)});
    ep.wait();
    EXPECT_THROW(eng.begin_capture(), Error);
  }
  // Gone after destruction: capture works and the engine is unharmed.
  ASSERT_TRUE(eng.begin_capture());
  eng.submit([] {}, {});
  eng.wait_all();
  auto g = eng.end_capture();
  ASSERT_NE(g, nullptr);
  {
    rt::NestedEpoch ep(eng, 0.0);
    EXPECT_THROW(eng.begin_replay(g), Error);
  }
  eng.begin_replay(g);
  eng.submit([] {}, {});
  eng.wait_all();
}

TEST(GraphCapture, SlotCountMismatchIsAnErrorAndEngineStaysUsable) {
  Engine eng({.num_workers = 2});
  const Handle h = eng.register_data();
  ASSERT_TRUE(eng.begin_capture());
  eng.submit([] {}, {rt::readwrite(h)});
  eng.submit([] {}, {rt::readwrite(h)});
  eng.wait_all();
  auto g = eng.end_capture();
  ASSERT_NE(g, nullptr);

  // Too few closures by wait_all time.
  eng.begin_replay(g);
  eng.submit([] {}, {});
  EXPECT_THROW(eng.wait_all(), Error);

  // Too many: the over-submission itself throws.
  eng.begin_replay(g);
  eng.submit([] {}, {});
  eng.submit([] {}, {});
  EXPECT_THROW(eng.submit([] {}, {}), Error);
  eng.wait_all();  // runs the two bound closures

  // The engine is live again: a normal epoch works.
  std::atomic<int> ran{0};
  eng.submit([&ran] { ++ran; }, {rt::readwrite(h)});
  eng.wait_all();
  EXPECT_EQ(ran.load(), 1);
}

TEST(GraphCapture, CapturedEpochSurvivesRetirementAndEngineDeath) {
  // The next live epoch drops the captured epoch's task records; the
  // CapturedGraph owns copies, so replaying after later epochs replaced the
  // captured one — or even on a different engine — must not dangle.
  std::shared_ptr<const CapturedGraph> g;
  std::vector<int> cells(3, 0);
  {
    Engine eng({.num_workers = 2});
    std::vector<Handle> hs;
    for (int i = 0; i < 3; ++i) hs.push_back(eng.register_data());
    ASSERT_TRUE(eng.begin_capture());
    for (int i = 0; i < 3; ++i)
      eng.submit([&cells, i] { cells[static_cast<std::size_t>(i)] += 1; },
                 {rt::readwrite(hs[static_cast<std::size_t>(i)])});
    eng.wait_all();
    g = eng.end_capture();
    ASSERT_NE(g, nullptr);
    // Two more live epochs drop the captured one's records.
    for (int e = 0; e < 2; ++e) {
      eng.submit([] {}, {rt::readwrite(hs[0])});
      eng.wait_all();
    }
    eng.begin_replay(g);
    for (int i = 0; i < 3; ++i)
      eng.submit([&cells, i] { cells[static_cast<std::size_t>(i)] += 10; },
                 {});
    eng.wait_all();
  }  // engine destroyed; g must stand alone
  // Cross-engine replay, with the conflict checker exercising the captured
  // access lists against an engine that never registered these handles.
  Engine other({.num_workers = 2, .check_conflicts = true});
  other.begin_replay(g);
  for (int i = 0; i < 3; ++i)
    other.submit([&cells, i] { cells[static_cast<std::size_t>(i)] += 100; },
                 {});
  other.wait_all();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cells[static_cast<std::size_t>(i)], 111);
}

// --- cache bounds and invalidation -----------------------------------------

std::shared_ptr<const CapturedGraph> tiny_graph(Engine& eng, Handle h) {
  EXPECT_TRUE(eng.begin_capture());
  eng.submit([] {}, {rt::readwrite(h)});
  eng.wait_all();
  return eng.end_capture();
}

TEST(GraphCacheLru, EvictionBoundHoldsAndStaleKeysMiss) {
  Engine eng({.num_workers = 1});
  const Handle h = eng.register_data();
  GraphCache cache(2);
  for (std::uint64_t key : {1u, 2u, 3u})
    cache.insert(key, tiny_graph(eng, h));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(1), nullptr);  // oldest evicted
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  // LRU order: touching 2 makes 3 the eviction victim.
  cache.lookup(2);
  cache.insert(4, tiny_graph(eng, h));
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_EQ(cache.lookup(3), nullptr);
}

TEST(GraphCacheLru, CapacityZeroStoresNothing) {
  Engine eng({.num_workers = 1});
  const Handle h = eng.register_data();
  GraphCache cache(0);
  cache.insert(7, tiny_graph(eng, h));
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.lookup(7), nullptr);
}

TEST(GraphCacheLru, ReplayDisableForcesLiveExecution) {
  ScopedEnv off("HCHAM_REPLAY_DISABLE", "1");
  Engine eng({.num_workers = 1});
  const Handle h = eng.register_data();
  GraphCache cache(8);
  for (int i = 0; i < 2; ++i)
    rt::run_epoch_cached(eng, &cache, 42,
                         [&] { eng.submit([] {}, {rt::readwrite(h)}); });
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(eng.replay_stats().captured, 0u);
  EXPECT_EQ(eng.replay_stats().replayed, 0u);
}

bem::FemBemProblem<double>& shared_problem() {
  static bem::FemBemProblem<double> problem(160);
  return problem;
}

core::TileHMatrix<double> build_tileh(Engine& eng,
                                      const core::TileHOptions& opts) {
  auto& problem = shared_problem();
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  return core::TileHMatrix<double>::build(eng, problem.points(), gen, opts);
}

core::TileHOptions small_tileh_options() {
  core::TileHOptions opts;
  opts.tile_size = 64;
  opts.clustering.leaf_size = 32;
  return opts;
}

void solve_ones(core::TileHMatrix<double>& a, Engine& eng, index_t nrhs,
                GraphCache* cache) {
  la::Matrix<double> b(a.size(), nrhs);
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < a.size(); ++i) b(i, j) = 1.0;
  a.solve(eng, b.view(), cache);
}

TEST(GraphCapture, ReplayIgnoresRegisterDataAndKeepsHistoryUntouched) {
  // A replay leaves the engine's task records alone: num_tasks() and
  // graph() still describe the last live epoch. register_data() during a
  // replay is an ordinary registration.
  Engine eng({.num_workers = 2});
  const Handle h = eng.register_data();
  ASSERT_TRUE(eng.begin_capture());
  eng.submit([] {}, {rt::readwrite(h)}, 0, "captured");
  eng.wait_all();
  auto g = eng.end_capture();
  ASSERT_NE(g, nullptr);
  const index_t tasks_before = eng.num_tasks();
  eng.begin_replay(g);
  EXPECT_EQ(eng.register_data("scratch").id, h.id + 1);
  eng.submit([] {}, {});
  eng.wait_all();
  EXPECT_EQ(eng.num_tasks(), tasks_before);  // replay leaves no task record
  const rt::TaskGraph after = eng.graph();
  ASSERT_EQ(after.num_tasks(), 1);
  EXPECT_EQ(after.first, 0);
  EXPECT_EQ(after.nodes[0].label, "captured");

  // A solve registers no handle: the RHS row-segment handles come with the
  // descriptor, and the graph captured on another engine through the
  // shared cache replays at every column count.
  GraphCache cache(8);
  {
    Engine src({.num_workers = 2});
    auto a = build_tileh(src, small_tileh_options());
    a.factorize(src);
    solve_ones(a, src, 2, &cache);  // capture
  }
  Engine dst({.num_workers = 2});
  auto a = build_tileh(dst, small_tileh_options());
  a.factorize(dst);
  const index_t dst_tasks = dst.num_tasks();
  const Handle probe = dst.register_data();
  for (const index_t nrhs : {1, 7, 32}) solve_ones(a, dst, nrhs, &cache);
  EXPECT_EQ(dst.register_data().id, probe.id + 1);
  EXPECT_EQ(dst.replay_stats().replayed, 3u);
  EXPECT_EQ(dst.num_tasks(), dst_tasks);
}

// --- engine state between epochs -------------------------------------------

TEST(EngineEpochState, ManyLiveSolvesKeepOneEpochOfState) {
  // A long-lived engine serving live solves keeps its handle table and one
  // epoch of task records: solves of any column count register no handle
  // and submit the same graph, and earlier epochs' records are dropped.
  Engine eng({.num_workers = 2});
  auto a = build_tileh(eng, small_tileh_options());
  a.factorize(eng);
  const Handle probe = eng.register_data();
  const index_t before = eng.num_tasks();
  solve_ones(a, eng, 1, nullptr);
  const index_t per_solve = eng.num_tasks() - before;
  ASSERT_GT(per_solve, 0);
  constexpr int kMore = 50;
  constexpr index_t kWidths[] = {1, 7, 32};
  for (int i = 0; i < kMore; ++i) solve_ones(a, eng, kWidths[i % 3], nullptr);
  EXPECT_EQ(eng.register_data().id, probe.id + 1);
  const rt::TaskGraph g = eng.graph();
  EXPECT_EQ(g.num_tasks(), per_solve);
  EXPECT_EQ(g.first, eng.num_tasks() - per_solve);
  EXPECT_EQ(eng.num_tasks(), before + (kMore + 1) * per_solve);
  EXPECT_EQ(eng.num_edges(), g.num_edges());
}

TEST(GraphCacheKeys, StructuralChangesChangeTheSignature) {
  Engine eng({.num_workers = 1});
  core::TileHOptions base;
  base.tile_size = 64;
  base.clustering.leaf_size = 32;
  const auto m = build_tileh(eng, base);
  const std::uint64_t sig = m.structure_signature();

  // Same options build: identical signature (the cache-hit contract).
  EXPECT_EQ(build_tileh(eng, base).structure_signature(), sig);

  // Different tile grid: different nt, must miss.
  core::TileHOptions coarse = base;
  coarse.tile_size = 96;
  EXPECT_NE(build_tileh(eng, coarse).structure_signature(), sig);

  // Different admissibility: same points, different block structure.
  core::TileHOptions weak = base;
  weak.hmatrix.admissibility.eta = 0.5;
  EXPECT_NE(build_tileh(eng, weak).structure_signature(), sig);
}

TEST(GraphCacheKeys, OneSolveGraphServesEveryColumnCount) {
  // The solve graph depends on the tile structure alone: solves of any
  // column count share one captured graph per factor kind, and every
  // replayed answer is bit-identical to a live solve of the same RHS.
  for (const bool cholesky : {false, true}) {
    SCOPED_TRACE(cholesky ? "cholesky" : "lu");
    Engine eng({.num_workers = 2});
    auto a = build_tileh(eng, small_tileh_options());
    if (cholesky) {
      a.factorize_cholesky(eng);
    } else {
      a.factorize(eng);
    }
    auto solve = [&](la::MatrixView<double> b, GraphCache* cache) {
      if (cholesky) {
        a.solve_cholesky(eng, b, cache);
      } else {
        a.solve(eng, b, cache);
      }
    };
    GraphCache cache(8);
    std::uint64_t seed = 3;
    for (const index_t nrhs : {1, 2, 1, 32}) {
      const auto b = la::Matrix<double>::random(a.size(), nrhs, seed++);
      auto live = la::Matrix<double>::from_view(b.cview());
      solve(live.view(), nullptr);
      auto cached = la::Matrix<double>::from_view(b.cview());
      solve(cached.view(), &cache);
      EXPECT_EQ(std::memcmp(live.data(), cached.data(),
                            sizeof(double) *
                                static_cast<std::size_t>(a.size() * nrhs)),
                0)
          << "nrhs=" << nrhs;
    }
    EXPECT_EQ(cache.size(), 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(eng.replay_stats().replayed, 3u);
  }
}

// --- capture vs accumulator flush / factorization epochs -------------------

TEST(GraphCacheKeys, FactorizationReplayAfterSourceMatrixDied) {
  // The captured factorization graph must hold no references into the
  // matrix it was captured from: destroy it, build a fresh identical one,
  // and replay (the closures re-bind to the new tiles, including the lazy
  // accumulator flushes inside the kernels).
  Engine eng({.num_workers = 2});
  core::TileHOptions opts;
  opts.tile_size = 64;
  opts.clustering.leaf_size = 32;
  GraphCache cache(4);
  la::Matrix<double> want;
  {
    auto doomed = build_tileh(eng, opts);
    doomed.factorize(eng, &cache);  // capture
    want = doomed.to_dense_original();
  }
  auto fresh = build_tileh(eng, opts);
  fresh.factorize(eng, &cache);  // replay against the new tiles
  EXPECT_EQ(eng.replay_stats().replayed, 1u);
  const la::Matrix<double> got = fresh.to_dense_original();
  for (index_t j = 0; j < got.cols(); ++j)
    for (index_t i = 0; i < got.rows(); ++i)
      ASSERT_EQ(got(i, j), want(i, j)) << "(" << i << "," << j << ")";
}

// --- serve-layer stats -----------------------------------------------------

TEST(ServeGraphStats, SessionSolvesThroughTheCacheAndStatsReport) {
  auto& problem = shared_problem();
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  core::TileHOptions hopts;
  hopts.tile_size = 64;
  hopts.clustering.leaf_size = 32;
  serve::SessionOptions sopts;
  sopts.workers = 2;
  GraphCache cache(8);
  sopts.graph_cache = &cache;  // shared cache instead of the session's own
  auto session = serve::Session<double>::build(problem.points(), gen, hopts,
                                               sopts);
  serve::SolverService<double> service(session);
  for (int i = 0; i < 3; ++i) {
    la::Matrix<double> rhs(session.size(), 1);
    for (index_t r = 0; r < session.size(); ++r) rhs(r, 0) = 1.0;
    auto reply = service.submit(std::move(rhs)).get();
    ASSERT_TRUE(reply.ok()) << reply.error;
  }
  service.stop();
  const serve::StatsSnapshot s = service.stats();
  EXPECT_EQ(s.completed, 3u);
  // First solve captured; later identical solves replayed.
  EXPECT_GE(s.graph_captured, 1u);
  EXPECT_GE(s.graph_replayed, 1u);
  EXPECT_NE(service.stats_json().find("\"graph\""), std::string::npos);
}

TEST(ServeGraphStats, EachSessionCapturesIntoItsOwnCache) {
  // A session factorizes live without capture. Without a shared cache, a
  // second session of the same structure captures its own solve graph
  // instead of replaying the first's.
  auto& problem = shared_problem();
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  serve::SessionOptions sopts;
  sopts.workers = 2;
  for (int i = 0; i < 2; ++i) {
    auto session = serve::Session<double>::build(
        problem.points(), gen, small_tileh_options(), sopts);
    EXPECT_EQ(session.engine().replay_stats().captured, 0u);
    EXPECT_EQ(session.cache()->size(), 0);
    EXPECT_EQ(session.cache()->capacity(), 32);
    for (int k = 0; k < 2; ++k) {
      la::Matrix<double> b(session.size(), 1);
      for (index_t r = 0; r < session.size(); ++r) b(r, 0) = 1.0;
      session.solve_now(b.view());
    }
    EXPECT_EQ(session.engine().replay_stats().captured, 1u);
    EXPECT_EQ(session.engine().replay_stats().replayed, 1u);
    EXPECT_EQ(session.cache()->size(), 1);
  }
}

TEST(ServeGraphStats, DisablingTheCacheKeepsEverythingLive) {
  auto& problem = shared_problem();
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  core::TileHOptions hopts;
  hopts.tile_size = 64;
  hopts.clustering.leaf_size = 32;
  serve::SessionOptions sopts;
  sopts.workers = 2;
  ScopedEnv off("HCHAM_REPLAY_DISABLE", "1");
  auto session = serve::Session<double>::build(problem.points(), gen, hopts,
                                               sopts);
  la::Matrix<double> b(session.size(), 1);
  for (index_t r = 0; r < session.size(); ++r) b(r, 0) = 1.0;
  session.solve_now(b.view());
  session.solve_now(b.view());
  EXPECT_EQ(session.engine().replay_stats().captured, 0u);
  EXPECT_EQ(session.engine().replay_stats().replayed, 0u);
}

}  // namespace
}  // namespace hcham
