// Task-runtime tests: dependency inference (sequential task flow), parallel
// execution correctness under all schedulers, DAG export, tracing, and the
// bounded env parsing behind the runtime's knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace_json.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using rt::AccessMode;
using rt::Engine;
using rt::Handle;
using rt::read;
using rt::readwrite;
using rt::SchedulerPolicy;
using rt::write;
using hcham::testing::ScopedEnv;

TEST(Runtime, TasksWithoutDepsAllRun) {
  Engine eng;
  std::atomic<int> count{0};
  auto h = eng.register_data();
  for (int i = 0; i < 10; ++i)
    eng.submit([&count] { ++count; }, {read(h)});
  eng.wait_all();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(eng.num_edges(), 0);  // independent readers
}

TEST(Runtime, WriteAfterWriteSerializes) {
  Engine eng;
  auto h = eng.register_data("x");
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    eng.submit([&order, i] { order.push_back(i); }, {readwrite(h)});
  eng.wait_all();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(eng.num_edges(), 4);  // a chain
}

TEST(Runtime, ReadersWaitForWriter) {
  Engine eng({.num_workers = 4});
  auto h = eng.register_data();
  std::atomic<int> value{0};
  eng.submit([&value] { value = 42; }, {write(h)});
  std::atomic<int> seen_correct{0};
  for (int i = 0; i < 8; ++i)
    eng.submit(
        [&value, &seen_correct] {
          if (value.load() == 42) ++seen_correct;
        },
        {read(h)});
  eng.wait_all();
  EXPECT_EQ(seen_correct.load(), 8);
}

TEST(Runtime, WriterWaitsForAllReaders) {
  Engine eng({.num_workers = 4});
  auto h = eng.register_data();
  std::atomic<int> readers_done{0};
  std::atomic<bool> writer_after_readers{false};
  eng.submit([] {}, {write(h)});
  for (int i = 0; i < 6; ++i)
    eng.submit([&readers_done] { ++readers_done; }, {read(h)});
  eng.submit(
      [&] { writer_after_readers = (readers_done.load() == 6); },
      {write(h)});
  eng.wait_all();
  EXPECT_TRUE(writer_after_readers.load());
}

TEST(Runtime, DiamondDependency) {
  Engine eng({.num_workers = 3});
  auto a = eng.register_data();
  auto b = eng.register_data();
  auto c = eng.register_data();
  std::vector<int> order;
  std::mutex mu;
  auto log = [&](int id) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(id);
  };
  eng.submit([&] { log(0); }, {write(a)});
  eng.submit([&] { log(1); }, {read(a), write(b)});
  eng.submit([&] { log(2); }, {read(a), write(c)});
  eng.submit([&] { log(3); }, {read(b), read(c)});
  eng.wait_all();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

class RuntimePolicies : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(RuntimePolicies, ChainedAccumulationIsDeterministic) {
  // Hundreds of read-modify-write tasks on shared cells: any execution that
  // respects dependencies yields the exact same result.
  Engine eng({.num_workers = 4, .policy = GetParam()});
  constexpr int kCells = 16;
  constexpr int kRounds = 40;
  std::vector<double> cells(kCells, 1.0);
  std::vector<Handle> handles;
  for (int i = 0; i < kCells; ++i) handles.push_back(eng.register_data());

  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kCells; ++i) {
      const int j = (i + 1) % kCells;
      // cells[j] += 0.5 * cells[i]
      eng.submit([&cells, i, j] { cells[j] += 0.5 * cells[i]; },
                 {read(handles[i]), readwrite(handles[j])}, r % 3);
    }
  }
  eng.wait_all();

  // Sequential reference.
  std::vector<double> ref(kCells, 1.0);
  for (int r = 0; r < kRounds; ++r)
    for (int i = 0; i < kCells; ++i) ref[(i + 1) % kCells] += 0.5 * ref[i];
  for (int i = 0; i < kCells; ++i)
    EXPECT_DOUBLE_EQ(cells[static_cast<std::size_t>(i)],
                     ref[static_cast<std::size_t>(i)])
        << "policy " << rt::to_string(GetParam());
}

TEST_P(RuntimePolicies, ManyIndependentTasksAllExecute) {
  Engine eng({.num_workers = 8, .policy = GetParam()});
  std::atomic<int> count{0};
  std::vector<Handle> hs;
  for (int i = 0; i < 200; ++i) hs.push_back(eng.register_data());
  for (int i = 0; i < 200; ++i)
    eng.submit([&count] { ++count; }, {write(hs[static_cast<std::size_t>(i)])},
               i % 5);
  eng.wait_all();
  EXPECT_EQ(count.load(), 200);
}

TEST_P(RuntimePolicies, WriteBeforeReadOnSameHandleDoesNotHang) {
  // Regression: a task listing write(h) before read(h) used to create a
  // self-edge (the write path set last_writer = id, then the read path
  // added an edge from last_writer to id), so pending never reached 0 and
  // wait_all() deadlocked with all workers parked. Mixed-order duplicate
  // accesses must collapse to zero self-dependencies.
  Engine eng({.num_workers = 4, .policy = GetParam()});
  auto h1 = eng.register_data();
  auto h2 = eng.register_data();
  std::atomic<int> count{0};
  eng.submit([&count] { ++count; }, {write(h1), read(h1)});
  eng.submit([&count] { ++count; }, {read(h1), write(h1), read(h1)});
  eng.submit([&count] { ++count; },
             {read(h2), readwrite(h2), write(h1), read(h2)});
  eng.submit([&count] { ++count; }, {read(h1), read(h1), write(h2)});
  eng.wait_all();
  EXPECT_EQ(count.load(), 4);
  // And the graph is still the plain chain on h1 (edges 1->2->3->4 plus the
  // h2 chain), with no duplicated reader edges.
  for (const auto& node : eng.graph().nodes)
    for (std::size_t i = 0; i + 1 < node.successors.size(); ++i)
      EXPECT_NE(node.successors[i], node.successors[i + 1]);
}

TEST_P(RuntimePolicies, WriteBeforeReadDoesNotHangOnLockedPath) {
  // Same regression with check_conflicts armed, which wraps every task in
  // the checker's mutex-guarded enter/leave bookkeeping.
  Engine eng({.num_workers = 4,
              .policy = GetParam(),
              .check_conflicts = true});
  auto h = eng.register_data();
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i)
    eng.submit([&count] { ++count; }, {write(h), read(h)});
  eng.wait_all();
  EXPECT_EQ(count.load(), 8);
  EXPECT_TRUE(eng.conflicts().empty());
}

TEST_P(RuntimePolicies, MultiEpochHeavyGraphDrainsEveryTime) {
  // Lock-light path stress: several wait_all() epochs with cross-epoch
  // dependencies, checking the parked-worker wakeup protocol never strands
  // a worker between epochs.
  Engine eng({.num_workers = 4, .policy = GetParam()});
  constexpr int kHandles = 8;
  std::vector<Handle> hs;
  for (int i = 0; i < kHandles; ++i) hs.push_back(eng.register_data());
  std::atomic<int> count{0};
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 64; ++i)
      eng.submit([&count] { ++count; },
                 {readwrite(hs[static_cast<std::size_t>(i % kHandles)]),
                  read(hs[static_cast<std::size_t>((i + 1) % kHandles)])},
                 i % 3);
    eng.wait_all();
    EXPECT_EQ(count.load(), 64 * (epoch + 1));
  }
}

/// Randomized read/readwrite DAG over a few shared cells: two live epochs
/// with cross-epoch edges, then the second epoch's structure captured and
/// replayed. Returns the cell values after every epoch, in order.
std::vector<double> drain_random_dag(Engine& eng) {
  constexpr int kCells = 12;
  std::vector<Handle> hs;
  for (int i = 0; i < kCells; ++i) hs.push_back(eng.register_data());
  std::vector<double> cells(kCells, 1.0);
  std::vector<double> out;
  auto submit_epoch = [&](std::uint64_t seed) {
    std::uint64_t s = seed;
    auto next = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<int>((s >> 33) % kCells);
    };
    for (int t = 0; t < 200; ++t) {
      const int src = next();
      const int dst = next();
      eng.submit([&cells, src, dst] { cells[dst] = 0.75 * cells[dst] +
                                                   0.5 * cells[src] + 0.125; },
                 {read(hs[src]), readwrite(hs[dst])}, t % 4);
    }
  };
  submit_epoch(7);
  eng.wait_all();
  out.insert(out.end(), cells.begin(), cells.end());
  EXPECT_TRUE(eng.begin_capture());
  submit_epoch(11);
  eng.wait_all();
  out.insert(out.end(), cells.begin(), cells.end());
  auto g = eng.end_capture();
  EXPECT_NE(g, nullptr);
  if (g == nullptr) return out;
  eng.begin_replay(g);
  submit_epoch(11);
  eng.wait_all();
  out.insert(out.end(), cells.begin(), cells.end());
  return out;
}

TEST_P(RuntimePolicies, SeventyTwoWorkersMatchOneWorker) {
  // More workers than one parked-mask word holds: the dispatcher must
  // drain live and replayed epochs bit-identically to a 1-worker engine,
  // with the conflict checker armed or not.
  Engine ref({.num_workers = 1, .policy = GetParam()});
  const std::vector<double> expect = drain_random_dag(ref);
  for (const bool check : {false, true}) {
    Engine eng({.num_workers = 72,
                .policy = GetParam(),
                .record_trace = true,
                .check_conflicts = check});
    EXPECT_EQ(drain_random_dag(eng), expect)
        << rt::to_string(GetParam()) << " check=" << check;
    EXPECT_TRUE(eng.conflicts().empty());
    EXPECT_EQ(eng.parked_workers(), 0);
    // The trace holds the last epoch alone: the 200-slot replay.
    EXPECT_EQ(eng.trace().size(), 200u);
    for (const auto& ev : eng.trace()) {
      EXPECT_TRUE(ev.replayed);
      EXPECT_GE(ev.worker, 0);
      EXPECT_LT(ev.worker, 72);
    }
  }
}

/// Spin until `pred()` holds or ~5 s elapse; returns whether it held.
template <typename Pred>
bool spin_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Counter deltas and outcome of one run_fan_out().
struct FanOut {
  RuntimeCounterSnapshot before;
  RuntimeCounterSnapshot after;
  std::size_t threads = 0;  ///< distinct threads that ran a child
  bool timed_out = false;
};

/// Two workers, one root task and four readers of its output. The root's
/// release publishes every child at once — on the releasing worker's own
/// queue (ws/lws) or on the central heap (prio) — and each child holds its
/// worker until children have run on two distinct threads, so the other
/// worker has to pick one up. With `wait_for_park` the root first waits
/// until that worker has parked, so the release must also wake it.
FanOut run_fan_out(SchedulerPolicy policy, bool wait_for_park) {
  constexpr int kFanOut = 4;
  Engine eng({.num_workers = 2, .policy = policy});
  std::mutex mu;
  std::vector<std::thread::id> ran;
  std::atomic<bool> two_threads{false};
  std::atomic<bool> timed_out{false};
  FanOut out;
  out.before = snapshot_runtime_counters();
  auto root = eng.register_data();
  eng.submit(
      [&] {
        if (!wait_for_park) return;
        const bool parked = spin_until([&] {
          return eng.parked_workers() == 1 &&
                 snapshot_runtime_counters().ll_parks > out.before.ll_parks;
        });
        if (!parked) timed_out.store(true);
      },
      {write(root)});
  for (int i = 0; i < kFanOut; ++i) {
    auto h = eng.register_data();
    eng.submit(
        [&] {
          {
            std::lock_guard<std::mutex> lk(mu);
            const auto me = std::this_thread::get_id();
            if (std::find(ran.begin(), ran.end(), me) == ran.end())
              ran.push_back(me);
            if (ran.size() == 2) two_threads.store(true);
          }
          if (!spin_until([&] { return two_threads.load(); }))
            timed_out.store(true);
        },
        {read(root), write(h)});
  }
  eng.wait_all();
  out.after = snapshot_runtime_counters();
  out.threads = ran.size();
  out.timed_out = timed_out.load();
  return out;
}

TEST_P(RuntimePolicies, ReleasedFanOutReachesTheIdleWorker) {
  // ws/lws publish a release on the releaser's own queue, so the idle
  // worker can only get a child through the (unscored) steal path; prio
  // shares one central heap and has no steal path at all.
  const FanOut r = run_fan_out(GetParam(), /*wait_for_park=*/false);
  ASSERT_FALSE(r.timed_out);
  EXPECT_EQ(r.threads, 2u);
  if (GetParam() == SchedulerPolicy::Priority) {
    EXPECT_EQ(r.after.ll_steals, r.before.ll_steals);
    EXPECT_EQ(r.after.ll_failed_steals, r.before.ll_failed_steals);
  } else {
    EXPECT_GT(r.after.ll_steals, r.before.ll_steals);
  }
}

TEST_P(RuntimePolicies, ReleaseWakesAParkedWorker) {
  // The idle worker parks while the root runs; the root's surplus release
  // must wake it with a targeted notify, or the children's rendezvous on
  // two threads times out.
  const FanOut r = run_fan_out(GetParam(), /*wait_for_park=*/true);
  ASSERT_FALSE(r.timed_out);
  EXPECT_EQ(r.threads, 2u);
  EXPECT_GT(r.after.ll_parks, r.before.ll_parks);
  EXPECT_GT(r.after.ll_wakes, r.before.ll_wakes);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RuntimePolicies,
                         ::testing::Values(SchedulerPolicy::WorkStealing,
                                           SchedulerPolicy::LocalityWorkStealing,
                                           SchedulerPolicy::Priority));

TEST(Runtime, EpochsCarryDependenciesAcrossWaitAll) {
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  int x = 0;
  eng.submit([&x] { x = 1; }, {write(h)});
  eng.wait_all();
  EXPECT_EQ(x, 1);
  eng.submit([&x] { x += 10; }, {readwrite(h)});
  eng.wait_all();
  EXPECT_EQ(x, 11);
}

TEST(Runtime, GraphSnapshotHasDurationsAndEdges) {
  Engine eng;
  auto h = eng.register_data();
  eng.submit([] {}, {write(h)}, 2, "first");
  eng.submit([] {}, {readwrite(h)}, 1, "second");
  eng.wait_all();
  auto g = eng.graph();
  ASSERT_EQ(g.num_tasks(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.nodes[0].label, "first");
  EXPECT_EQ(g.nodes[0].successors.size(), 1u);
  EXPECT_EQ(g.nodes[1].num_dependencies, 1);
  EXPECT_GE(g.nodes[0].duration_s, 0.0);
  EXPECT_EQ(g.nodes[0].priority, 2);
}

TEST(Runtime, CriticalPathOfAChainIsTotalWork) {
  Engine eng;
  auto h = eng.register_data();
  for (int i = 0; i < 5; ++i)
    eng.submit([] {}, {readwrite(h)});
  eng.wait_all();
  auto g = eng.graph();
  EXPECT_NEAR(g.critical_path_s(), g.total_work_s(), 1e-12);
}

TEST(Runtime, DotExportContainsNodesAndEdges) {
  Engine eng;
  auto h = eng.register_data();
  eng.submit([] {}, {write(h)}, 0, "getrf");
  eng.submit([] {}, {read(h)}, 0, "trsm");
  eng.wait_all();
  const std::string dot = eng.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("getrf"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
}

TEST(Runtime, GraphDescribesTheLastLiveEpochOnly) {
  // Between epochs the engine keeps one epoch of task records: graph() is
  // the second epoch alone, tail_from(first) takes it whole and rebased,
  // and the trace (also the second epoch alone) maps its task ids onto
  // the labels through TaskGraph::first.
  Engine eng({.num_workers = 2, .record_trace = true});
  auto h = eng.register_data();
  auto k = eng.register_data();
  eng.submit([] {}, {write(h)}, 0, "a0");
  eng.submit([] {}, {read(h)}, 0, "a1");
  eng.wait_all();
  const rt::TaskId first = eng.num_tasks();
  ASSERT_EQ(first, 2);
  eng.submit([] {}, {readwrite(h)}, 5, "b0");
  eng.submit([] {}, {read(h), write(k)}, 4, "b1");
  eng.submit([] {}, {read(k)}, 3, "b2");
  eng.wait_all();
  EXPECT_EQ(eng.num_tasks(), 5);
  EXPECT_EQ(eng.num_edges(), 2);  // b0 -> b1 -> b2; epoch a is satisfied

  const rt::TaskGraph g = eng.graph();
  EXPECT_EQ(g.first, first);
  const rt::TaskGraph tail = g.tail_from(first);
  EXPECT_EQ(tail.first, first);
  ASSERT_EQ(tail.num_tasks(), 3);
  EXPECT_EQ(tail.num_edges(), 2);
  EXPECT_EQ(tail.nodes[0].label, "b0");
  EXPECT_EQ(tail.nodes[0].priority, 5);
  EXPECT_EQ(tail.nodes[0].successors, std::vector<rt::TaskId>{1});
  EXPECT_EQ(tail.nodes[1].successors, std::vector<rt::TaskId>{2});
  EXPECT_EQ(tail.nodes[2].num_dependencies, 1);
  EXPECT_EQ(g.tail_from(first + 1).num_tasks(), 2);
  EXPECT_THROW(g.tail_from(first - 1), Error);  // before the epoch
  EXPECT_NE(eng.to_dot().find("t3 -> t4"), std::string::npos);

  // Every event is the second epoch's, named after its own task.
  ASSERT_EQ(eng.trace().size(), 3u);
  for (const auto& ev : eng.trace()) {
    EXPECT_GE(ev.task, first);
    EXPECT_FALSE(ev.replayed);
  }
  std::ostringstream out;
  trace_to_json(eng.trace(), g, out);
  const std::string json = out.str();
  for (const char* name : {"\"b0\"", "\"b1\"", "\"b2\""})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  for (const char* name : {"\"a0\"", "\"task0\"", "\"task1\""})
    EXPECT_EQ(json.find(name), std::string::npos) << name;
}

TEST(Runtime, TraceHoldsExactlyTheLastEpochLiveCapturedOrReplayed) {
  // One engine runs a live, a captured and a replayed epoch. After each
  // wait_all() the trace is that epoch's events alone: live and captured
  // events carry the epoch's task ids, replayed ones their slots, and the
  // JSON names a replayed event by its slot, never by a live task's label.
  Engine eng({.num_workers = 2, .record_trace = true});
  auto h = eng.register_data();
  auto k = eng.register_data();
  const auto submit_epoch = [&](const char* tag) {
    eng.submit([] {}, {write(h)}, 0, std::string(tag) + "0");
    eng.submit([] {}, {read(h), write(k)}, 0, std::string(tag) + "1");
    eng.submit([] {}, {read(k)}, 0, std::string(tag) + "2");
  };
  const auto ids = [&eng] {
    std::vector<rt::TaskId> out;
    for (const auto& ev : eng.trace()) out.push_back(ev.task);
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto all_replayed = [&eng](bool want) {
    return std::all_of(eng.trace().begin(), eng.trace().end(),
                       [want](const auto& ev) { return ev.replayed == want; });
  };

  submit_epoch("live");
  eng.wait_all();
  EXPECT_EQ(ids(), (std::vector<rt::TaskId>{0, 1, 2}));
  EXPECT_TRUE(all_replayed(false));

  ASSERT_TRUE(eng.begin_capture());
  submit_epoch("cap");
  eng.wait_all();
  const auto g = eng.end_capture();
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(ids(), (std::vector<rt::TaskId>{3, 4, 5}));
  EXPECT_TRUE(all_replayed(false));

  eng.begin_replay(g);
  for (int i = 0; i < 3; ++i) eng.submit([] {}, {});
  eng.wait_all();
  EXPECT_EQ(ids(), (std::vector<rt::TaskId>{0, 1, 2}));
  EXPECT_TRUE(all_replayed(true));
  for (const auto& ev : eng.trace()) EXPECT_LE(ev.start_s, ev.end_s);
  std::ostringstream out;
  trace_to_json(eng.trace(), eng.graph(), out);
  const std::string json = out.str();
  for (const char* name :
       {"\"replay slot 0\"", "\"replay slot 1\"", "\"replay slot 2\""})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  for (const char* name : {"\"live", "\"cap", "\"task"})
    EXPECT_EQ(json.find(name), std::string::npos) << name;

  // A live epoch after the replay replaces it again.
  submit_epoch("again");
  eng.wait_all();
  EXPECT_EQ(ids(), (std::vector<rt::TaskId>{6, 7, 8}));
  EXPECT_TRUE(all_replayed(false));
}

TEST(Runtime, TraceRecordsAllTasks) {
  Engine eng({.num_workers = 2, .record_trace = true});
  auto h = eng.register_data();
  for (int i = 0; i < 7; ++i) eng.submit([] {}, {readwrite(h)});
  eng.wait_all();
  EXPECT_EQ(eng.trace().size(), 7u);
  for (const auto& ev : eng.trace()) {
    EXPECT_GE(ev.worker, 0);
    EXPECT_LT(ev.worker, 2);
    EXPECT_LE(ev.start_s, ev.end_s);
  }
}

TEST(Runtime, TraceJsonEscapesLabels) {
  // Labels can carry arbitrary text (user-provided block names); the JSON
  // emitter must escape quotes, backslashes, and control characters so the
  // output stays parseable. Decode the emitted name and require an exact
  // round trip.
  const std::string label = "lu \"block\" a\\b\ttab\nline\x01end";
  Engine eng({.num_workers = 1, .record_trace = true});
  auto h = eng.register_data();
  eng.submit([] {}, {write(h)}, 0, label.c_str());
  eng.wait_all();
  std::ostringstream out;
  trace_to_json(eng.trace(), eng.graph(), out);
  const std::string json = out.str();

  // No raw control characters may survive anywhere in the document.
  for (const char c : json)
    ASSERT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control character 0x" << std::hex
        << int(static_cast<unsigned char>(c)) << " in output";

  const std::string key = "\"name\": \"";
  const std::size_t start = json.find(key);
  ASSERT_NE(start, std::string::npos);
  std::string decoded;
  std::size_t i = start + key.size();
  while (i < json.size() && json[i] != '"') {
    if (json[i] != '\\') {
      decoded += json[i++];
      continue;
    }
    ASSERT_LT(i + 1, json.size());
    const char e = json[i + 1];
    i += 2;
    switch (e) {
      case '"': decoded += '"'; break;
      case '\\': decoded += '\\'; break;
      case 'b': decoded += '\b'; break;
      case 'f': decoded += '\f'; break;
      case 'n': decoded += '\n'; break;
      case 'r': decoded += '\r'; break;
      case 't': decoded += '\t'; break;
      case 'u': {
        ASSERT_LE(i + 4, json.size());
        decoded += static_cast<char>(
            std::stoi(json.substr(i, 4), nullptr, 16));
        i += 4;
        break;
      }
      default: FAIL() << "unknown escape \\" << e;
    }
  }
  EXPECT_EQ(decoded, label);
}

TEST(Runtime, DuplicateEdgesAreDeduplicated) {
  Engine eng;
  auto h1 = eng.register_data();
  auto h2 = eng.register_data();
  eng.submit([] {}, {write(h1), write(h2)});
  // Second task depends on the first through BOTH handles: one edge only.
  eng.submit([] {}, {readwrite(h1), readwrite(h2)});
  eng.wait_all();
  EXPECT_EQ(eng.num_edges(), 1);
}

TEST(Runtime, InvalidHandleThrows) {
  Engine eng;
  EXPECT_THROW(eng.submit([] {}, {read(Handle{})}), Error);
  EXPECT_THROW(eng.submit([] {}, {read(Handle{99})}), Error);
}

TEST(Runtime, TiledLuDagShape) {
  // The paper's Fig. 1: a 3x3 tiled LU has 3 GETRF + 6+6... in total
  // 3 GETRF, 6 TRSM (wait: 2 block cols * ... ) - count: sum_k [1 + 2*(nt-k-1) +
  // (nt-k-1)^2] for nt=3: k=0: 1+4+4=9; k=1: 1+2+1=4; k=2: 1 -> 14 tasks.
  Engine eng;
  constexpr int nt = 3;
  Handle tiles[nt][nt];
  for (auto& row : tiles)
    for (auto& t : row) t = eng.register_data();
  for (int k = 0; k < nt; ++k) {
    eng.submit([] {}, {readwrite(tiles[k][k])}, 0, "getrf");
    for (int j = k + 1; j < nt; ++j)
      eng.submit([] {}, {read(tiles[k][k]), readwrite(tiles[k][j])}, 0,
                 "trsm");
    for (int i = k + 1; i < nt; ++i)
      eng.submit([] {}, {read(tiles[k][k]), readwrite(tiles[i][k])}, 0,
                 "trsm");
    for (int i = k + 1; i < nt; ++i)
      for (int j = k + 1; j < nt; ++j)
        eng.submit([] {},
                   {read(tiles[i][k]), read(tiles[k][j]),
                    readwrite(tiles[i][j])},
                   0, "gemm");
  }
  eng.wait_all();
  EXPECT_EQ(eng.num_tasks(), 14);
  EXPECT_GT(eng.num_edges(), 0);
}

TEST(Runtime, TaskExceptionSurfacesAtWaitAll) {
  Engine eng;
  auto h = eng.register_data();
  eng.submit([] { throw std::runtime_error("task boom"); }, {write(h)});
  EXPECT_THROW(eng.wait_all(), std::runtime_error);
}

TEST(Runtime, TaskExceptionSurfacesFromWorkerPool) {
  Engine eng({.num_workers = 4});
  auto h = eng.register_data();
  std::atomic<int> others{0};
  for (int i = 0; i < 20; ++i)
    eng.submit([&others] { ++others; }, {read(h)});
  eng.submit([] { throw std::logic_error("parallel boom"); },
             {readwrite(h)});
  EXPECT_THROW(eng.wait_all(), std::logic_error);
  EXPECT_EQ(others.load(), 20);  // the rest of the graph still drained
}

TEST(Runtime, TaskErrorIsRethrownExactlyOnce) {
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  std::atomic<int> after{0};
  eng.submit([] { throw std::runtime_error("boom"); }, {readwrite(h)});
  for (int i = 0; i < 10; ++i)
    eng.submit([&after] { ++after; }, {readwrite(h)});
  EXPECT_THROW(eng.wait_all(), std::runtime_error);
  EXPECT_EQ(after.load(), 10);  // dependents drained despite the failure
  // The error was consumed: an empty follow-up epoch must not rethrow it.
  EXPECT_NO_THROW(eng.wait_all());
  // And the engine stays usable for a subsequent epoch.
  int x = 0;
  eng.submit([&x] { x = 5; }, {readwrite(h)});
  EXPECT_NO_THROW(eng.wait_all());
  EXPECT_EQ(x, 5);
}

TEST(Runtime, OnlyFirstOfMultipleTaskErrorsSurfaces) {
  Engine eng;  // one worker: deterministic execution order
  auto h = eng.register_data();
  eng.submit([] { throw std::runtime_error("first"); }, {readwrite(h)});
  eng.submit([] { throw std::logic_error("second"); }, {readwrite(h)});
  try {
    eng.wait_all();
    FAIL() << "expected the first task error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_NO_THROW(eng.wait_all());  // the second error is not queued up
}

TEST(Runtime, EngineUsableAfterTaskFailure) {
  Engine eng({.num_workers = 2});
  auto h = eng.register_data();
  eng.submit([] { throw std::runtime_error("boom"); }, {write(h)});
  EXPECT_THROW(eng.wait_all(), std::runtime_error);
  int x = 0;
  eng.submit([&x] { x = 7; }, {readwrite(h)});
  eng.wait_all();
  EXPECT_EQ(x, 7);
}

// ---------------------------------------------------------------------------
// Bounded env parsing: hostile values degrade to the fallback, they are
// NOT clamped into range.

TEST(EnvBounded, HostileValuesDegradeToDefaults) {
  ScopedEnv bounded("HCHAM_TEST_BOUNDED", "-5");
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 32);
  bounded.set("0");
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 32);
  bounded.set("1000000000");
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 32);
  bounded.set("64");
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 64);
  // Bounds are inclusive.
  bounded.set("1");
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 1);
  bounded.set("100");
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 100);
  bounded.set(nullptr);
  EXPECT_EQ(env_long_bounded("HCHAM_TEST_BOUNDED", 32, 1, 100), 32);

  ScopedEnv bounded_d("HCHAM_TEST_BOUNDED_D", "-0.5");
  EXPECT_EQ(env_double_bounded("HCHAM_TEST_BOUNDED_D", 0.25, 0.0, 1.0), 0.25);
  bounded_d.set("nan");
  EXPECT_EQ(env_double_bounded("HCHAM_TEST_BOUNDED_D", 0.25, 0.0, 1.0), 0.25);
  bounded_d.set("1e99");
  EXPECT_EQ(env_double_bounded("HCHAM_TEST_BOUNDED_D", 0.25, 0.0, 1.0), 0.25);
  bounded_d.set("0.5");
  EXPECT_EQ(env_double_bounded("HCHAM_TEST_BOUNDED_D", 0.25, 0.0, 1.0), 0.5);
}

// A value the caller exported (e.g. HCHAM_SESSION_CACHE_BYTES for the
// tiny-cache CI step) must survive a test that overrides or unsets it.
TEST(EnvBounded, ScopedEnvRestoresPreviousValueOrAbsence) {
  ::setenv("HCHAM_TEST_SCOPED", "exported", 1);
  {
    ScopedEnv guard("HCHAM_TEST_SCOPED", "override");
    EXPECT_STREQ(std::getenv("HCHAM_TEST_SCOPED"), "override");
    guard.set(nullptr);
    EXPECT_EQ(std::getenv("HCHAM_TEST_SCOPED"), nullptr);
  }
  EXPECT_STREQ(std::getenv("HCHAM_TEST_SCOPED"), "exported");
  ::unsetenv("HCHAM_TEST_SCOPED");
  {
    ScopedEnv guard("HCHAM_TEST_SCOPED", "set");
    EXPECT_STREQ(std::getenv("HCHAM_TEST_SCOPED"), "set");
  }
  EXPECT_EQ(std::getenv("HCHAM_TEST_SCOPED"), nullptr);
}

}  // namespace
}  // namespace hcham
