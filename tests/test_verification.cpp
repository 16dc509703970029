// Tests for the runtime verification layer: the access-conflict checker
// (validated by fault injection that deliberately drops a dependency
// edge), the seeded schedule fuzzer, and the submit-during-wait_all guard.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/engine.hpp"

namespace hcham {
namespace {

using rt::Engine;
using rt::Handle;
using rt::read;
using rt::readwrite;
using rt::SchedulerPolicy;
using rt::write;

constexpr SchedulerPolicy kPolicies[] = {SchedulerPolicy::WorkStealing,
                                         SchedulerPolicy::LocalityWorkStealing,
                                         SchedulerPolicy::Priority};

class CheckerPolicies : public ::testing::TestWithParam<SchedulerPolicy> {};

/// Fault injection: dropping the single W->W edge lets both writers run
/// concurrently, and the checker must fire under every policy. The task
/// bodies only sleep (no shared data), so the test is TSan-clean.
TEST_P(CheckerPolicies, FiresOnDroppedWriteWriteEdge) {
  Engine eng({.num_workers = 2,
              .policy = GetParam(),
              .check_conflicts = true,
              .fault_drop_edge = 0});
  auto h = eng.register_data("x");
  auto sleepy = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  eng.submit(sleepy, {write(h)}, 0, "w0");
  eng.submit(sleepy, {write(h)}, 0, "w1");
  ASSERT_EQ(eng.num_edges(), 0);  // the only inferred edge was dropped
  try {
    eng.wait_all();
    FAIL() << "expected the conflict checker to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos)
        << e.what();
  }
  ASSERT_FALSE(eng.conflicts().empty());
  EXPECT_NE(eng.conflicts().front().find("W/W"), std::string::npos);
}

/// Same fault, R-after-W flavour: a reader racing its producer.
TEST_P(CheckerPolicies, FiresOnDroppedReadAfterWriteEdge) {
  Engine eng({.num_workers = 2,
              .policy = GetParam(),
              .check_conflicts = true,
              .fault_drop_edge = 0});
  auto h = eng.register_data("x");
  auto sleepy = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  eng.submit(sleepy, {write(h)}, 0, "producer");
  eng.submit(sleepy, {read(h)}, 0, "consumer");
  ASSERT_EQ(eng.num_edges(), 0);
  EXPECT_THROW(eng.wait_all(), Error);
  ASSERT_FALSE(eng.conflicts().empty());
}

/// On the unmutated engine the checker must stay silent for a randomized
/// DAG, under every policy.
TEST_P(CheckerPolicies, SilentOnCorrectGraph) {
  Engine eng(
      {.num_workers = 4, .policy = GetParam(), .check_conflicts = true});
  constexpr int kCells = 8;
  std::vector<Handle> handles;
  for (int i = 0; i < kCells; ++i) handles.push_back(eng.register_data());
  std::vector<double> cells(kCells, 1.0);
  Rng rng(42);
  for (int t = 0; t < 300; ++t) {
    const int src = static_cast<int>(rng.uniform_index(kCells));
    const int dst = static_cast<int>(rng.uniform_index(kCells));
    eng.submit([&cells, src, dst] { cells[dst] += 0.25 * cells[src]; },
               {read(handles[src]), readwrite(handles[dst])},
               static_cast<int>(rng.uniform_index(4)));
  }
  EXPECT_NO_THROW(eng.wait_all());
  EXPECT_TRUE(eng.conflicts().empty());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CheckerPolicies,
                         ::testing::ValuesIn(kPolicies));

TEST(FaultInjection, DropsExactlyTheRequestedEdge) {
  auto build = [](index_t drop) {
    Engine eng({.fault_drop_edge = drop});
    auto h = eng.register_data();
    for (int i = 0; i < 4; ++i) eng.submit([] {}, {readwrite(h)});
    return eng.num_edges();
  };
  EXPECT_EQ(build(-1), 3);  // the full W->W chain
  EXPECT_EQ(build(0), 2);
  EXPECT_EQ(build(1), 2);
  EXPECT_EQ(build(2), 2);
  EXPECT_EQ(build(99), 3);  // out of range: nothing dropped
}

TEST(FaultInjection, CheckerSurvivesSecondEpochAfterConflict) {
  Engine eng({.num_workers = 2,
              .check_conflicts = true,
              .fault_drop_edge = 0});
  auto h = eng.register_data();
  auto sleepy = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  eng.submit(sleepy, {write(h)});
  eng.submit(sleepy, {write(h)});
  EXPECT_THROW(eng.wait_all(), Error);
  // The conflict is reported once; a correct follow-up epoch is clean.
  int x = 0;
  eng.submit([&x] { x = 1; }, {readwrite(h)});
  EXPECT_NO_THROW(eng.wait_all());
  EXPECT_EQ(x, 1);
  EXPECT_TRUE(eng.conflicts().empty());
}

// --- seeded schedule fuzzer ------------------------------------------------

TEST(Fuzzer, RespectsChainOrder) {
  // A W->W chain has exactly one topological order; every fuzz seed must
  // reproduce it.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Engine eng({.fuzz_schedule = true, .fuzz_seed = seed});
    auto h = eng.register_data();
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
      eng.submit([&order, i] { order.push_back(i); }, {readwrite(h)});
    eng.wait_all();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i) << "seed " << seed;
  }
}

TEST(Fuzzer, ReplayIsDeterministicPerSeedAndVariesAcrossSeeds) {
  auto run = [](std::uint64_t seed) {
    Engine eng({.record_trace = true,
                .fuzz_schedule = true,
                .fuzz_seed = seed});
    std::vector<Handle> hs;
    for (int i = 0; i < 20; ++i) hs.push_back(eng.register_data());
    for (int i = 0; i < 20; ++i) eng.submit([] {}, {write(hs[i])});
    eng.wait_all();
    std::vector<rt::TaskId> order;
    for (const auto& ev : eng.trace()) order.push_back(ev.task);
    return order;
  };
  std::set<std::vector<rt::TaskId>> distinct;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto a = run(seed);
    const auto b = run(seed);
    EXPECT_EQ(a, b) << "fuzz replay not deterministic for seed " << seed;
    EXPECT_EQ(a.size(), 20u);
    distinct.insert(a);
  }
  // 20 independent tasks have 20! legal orders: five seeds collapsing to
  // one order means the fuzzer is not randomizing at all.
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Fuzzer, ReplayedEpochIsFuzzedDeterministicallyPerSeed) {
  // A captured epoch of 20 independent tasks, replayed under the fuzzer:
  // replays are dispatched like live epochs, so the seed must pick the
  // order, reproducibly, instead of plain slot order.
  std::shared_ptr<const rt::CapturedGraph> g;
  {
    Engine cap;
    std::vector<Handle> hs;
    for (int i = 0; i < 20; ++i) hs.push_back(cap.register_data());
    ASSERT_TRUE(cap.begin_capture());
    for (int i = 0; i < 20; ++i) cap.submit([] {}, {write(hs[i])});
    cap.wait_all();
    g = cap.end_capture();
  }
  ASSERT_NE(g, nullptr);
  auto run = [&g](std::uint64_t seed) {
    Engine eng({.record_trace = true,
                .fuzz_schedule = true,
                .fuzz_seed = seed});
    std::vector<int> ran;
    eng.begin_replay(g);
    for (int i = 0; i < 20; ++i)
      eng.submit([&ran, i] { ran.push_back(i); }, {});
    eng.wait_all();
    std::vector<rt::TaskId> order;
    for (const auto& ev : eng.trace()) {
      EXPECT_TRUE(ev.replayed);  // slots, not task ids
      order.push_back(ev.task);
    }
    EXPECT_EQ(order, std::vector<rt::TaskId>(ran.begin(), ran.end()));
    return order;
  };
  std::set<std::vector<rt::TaskId>> distinct;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto a = run(seed);
    EXPECT_EQ(a, run(seed)) << "fuzzed replay not deterministic, seed "
                            << seed;
    EXPECT_EQ(a.size(), 20u);
    distinct.insert(a);
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Fuzzer, DrainsDiamondAcrossEpochs) {
  Engine eng({.fuzz_schedule = true, .fuzz_seed = 9});
  auto a = eng.register_data();
  auto b = eng.register_data();
  auto c = eng.register_data();
  int joined = 0;
  eng.submit([] {}, {write(a)});
  eng.submit([] {}, {read(a), write(b)});
  eng.submit([] {}, {read(a), write(c)});
  eng.submit([&joined] { joined = 1; }, {read(b), read(c)});
  eng.wait_all();
  EXPECT_EQ(joined, 1);
  // Second epoch keeps the handle state.
  eng.submit([&joined] { joined = 2; }, {readwrite(b)});
  eng.wait_all();
  EXPECT_EQ(joined, 2);
}

TEST(Fuzzer, TaskErrorsSurfaceFromWaitAll) {
  Engine eng({.fuzz_schedule = true, .fuzz_seed = 3});
  auto h = eng.register_data();
  std::atomic<int> others{0};
  for (int i = 0; i < 5; ++i)
    eng.submit([&others] { ++others; }, {read(h)});
  eng.submit([] { throw std::runtime_error("fuzz boom"); }, {readwrite(h)});
  EXPECT_THROW(eng.wait_all(), std::runtime_error);
  EXPECT_EQ(others.load(), 5);  // the rest of the graph drained
}

// --- submit-during-wait_all guard ------------------------------------------

TEST(SubmitGuard, SubmitFromInsideATaskThrows) {
  Engine eng;
  auto h = eng.register_data();
  eng.submit([&eng, h] { eng.submit([] {}, {read(h)}); }, {write(h)});
  EXPECT_THROW(eng.wait_all(), Error);
  // The offending submit was rejected before touching the graph, and the
  // engine stays usable.
  EXPECT_EQ(eng.num_tasks(), 1);
  int x = 0;
  eng.submit([&x] { x = 1; }, {readwrite(h)});
  EXPECT_NO_THROW(eng.wait_all());
  EXPECT_EQ(x, 1);
}

TEST(SubmitGuard, SubmitFromWorkerPoolThrows) {
  Engine eng({.num_workers = 3});
  auto h = eng.register_data();
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i)
    eng.submit([&ran] { ++ran; }, {read(h)});
  eng.submit([&eng, h] { eng.submit([] {}, {read(h)}); }, {write(h)});
  EXPECT_THROW(eng.wait_all(), Error);
  EXPECT_EQ(ran.load(), 10);
}

}  // namespace
}  // namespace hcham
