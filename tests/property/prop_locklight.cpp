// Properties of the lock-light dispatcher: randomized DAGs and the full
// Tile-H LU (factors and solve, real and complex, live and replayed from a
// GraphCache) must be bit-identical to a sequential referee under every
// policy at {2, 4, 8} workers (replay also at 1). Built without
// check_conflicts on purpose — the checker serializes every task
// start/finish through its mutex, which prop_dag and prop_lu already
// cover; this file is the one that puts the per-worker queues, batched
// release, and parking protocol under load without that extra
// synchronization (and under TSan, where it runs as part of the
// `property` label).
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <optional>
#include <sstream>
#include <vector>

#include "bem/testcase.hpp"
#include "core/tile_h.hpp"
#include "prop_utils.hpp"
#include "runtime/engine.hpp"
#include "runtime/graph_cache.hpp"

namespace hcham {
namespace {

using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using rt::Engine;
using rt::SchedulerPolicy;
using hcham::testing::prop::check_with_shrink;
using hcham::testing::prop::ProblemConfig;
using hcham::testing::prop::Sweep;
using hcham::testing::prop::sweep_name;

/// seeds x {ws, lws, prio} x workers, by default {2, 4, 8}: always
/// multi-threaded (1 worker runs sequentially and never enters the
/// lock-light scheduler), with 8 > hardware cores to force preemption
/// inside the protocol.
std::vector<Sweep> locklight_sweep(
    std::initializer_list<std::uint64_t> seeds = {17, 29},
    std::initializer_list<int> workers = {2, 4, 8}) {
  std::vector<Sweep> out;
  for (const std::uint64_t s : seeds)
    for (const SchedulerPolicy p :
         {SchedulerPolicy::WorkStealing,
          SchedulerPolicy::LocalityWorkStealing, SchedulerPolicy::Priority})
      for (const int w : workers) out.push_back(Sweep{s, p, w});
  return out;
}

/// Randomized chained-accumulation plan over shared cells (same flavour as
/// prop_dag, self-contained so this suite only needs the runtime): STF
/// fixes the per-cell operation order at submission, so every legal
/// schedule produces bit-identical doubles.
struct ChainPlan {
  struct Step {
    int src;
    int dst;
    double coeff;
  };
  int num_cells = 0;
  std::vector<Step> steps;

  static ChainPlan draw(Rng& rng, int num_cells, int num_steps) {
    ChainPlan p;
    p.num_cells = num_cells;
    for (int t = 0; t < num_steps; ++t) {
      const int src = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(num_cells)));
      int dst = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(num_cells)));
      if (dst == src) dst = (dst + 1) % num_cells;
      p.steps.push_back(Step{src, dst, rng.uniform(0.1, 0.9)});
    }
    return p;
  }
};

std::vector<double> run_plan(const ChainPlan& plan, int workers,
                             SchedulerPolicy policy) {
  Engine eng({.num_workers = workers, .policy = policy});
  std::vector<rt::Handle> handles;
  for (int i = 0; i < plan.num_cells; ++i)
    handles.push_back(eng.register_data());
  std::vector<double> cells(static_cast<std::size_t>(plan.num_cells), 1.0);
  for (const ChainPlan::Step& s : plan.steps)
    eng.submit(
        [&cells, s] {
          cells[static_cast<std::size_t>(s.dst)] +=
              s.coeff * cells[static_cast<std::size_t>(s.src)];
        },
        {rt::read(handles[static_cast<std::size_t>(s.src)]),
         rt::readwrite(handles[static_cast<std::size_t>(s.dst)])},
        static_cast<int>(s.coeff * 10));
  eng.wait_all();
  return cells;
}

struct ChainConfig {
  std::uint64_t seed = 0;
  int num_cells = 10;
  int num_steps = 500;

  std::optional<ChainConfig> shrunk() const {
    if (num_steps <= 25) return std::nullopt;
    ChainConfig c = *this;
    c.num_steps /= 2;
    c.num_cells = std::max(3, num_cells / 2);
    return c;
  }
  std::string describe() const {
    std::ostringstream s;
    s << "cells=" << num_cells << " steps=" << num_steps;
    return s.str();
  }
};

class LockLightDag : public ::testing::TestWithParam<Sweep> {};

TEST_P(LockLightDag, MatchesSequentialRefereeBitForBit) {
  const Sweep sw = GetParam();
  check_with_shrink(
      sw, ChainConfig{sw.seed, 10, 500},
      [&sw](const ChainConfig& cfg) -> std::optional<std::string> {
        Rng rng(cfg.seed);
        const ChainPlan plan =
            ChainPlan::draw(rng, cfg.num_cells, cfg.num_steps);
        const std::vector<double> ref =
            run_plan(plan, 1, sw.policy);  // sequential referee
        const std::vector<double> got =
            run_plan(plan, sw.workers, sw.policy);
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (got[i] != ref[i])
            return "cell " + std::to_string(i) +
                   " diverged from the sequential referee";
        return std::nullopt;
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, LockLightDag,
                         ::testing::ValuesIn(locklight_sweep()), sweep_name);

/// Right-hand sides of the solve comparison: two columns, no symmetry.
template <typename T>
la::Matrix<T> make_rhs(index_t n) {
  la::Matrix<T> b(n, 2);
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i)
      b(i, j) = T(1.0 + static_cast<double>(i % 7) +
                  0.5 * static_cast<double>(j));
  return b;
}

/// First entry where `got` and `want` differ bit for bit, if any.
template <typename T>
std::optional<std::string> first_divergence(const la::Matrix<T>& got,
                                            const la::Matrix<T>& want,
                                            const char* what) {
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i)
      if (got(i, j) != want(i, j)) {
        std::ostringstream s;
        s << what << " entry (" << i << "," << j
          << ") diverged from the sequential referee: " << got(i, j)
          << " vs " << want(i, j);
        return s.str();
      }
  return std::nullopt;
}

TileHOptions tileh_options(const ProblemConfig& c) {
  TileHOptions opts;
  opts.tile_size = c.tile_size;
  opts.clustering.leaf_size = c.leaf_size;
  opts.hmatrix.compression.eps = c.eps;
  return opts;
}

/// Factors and solution of one Tile-H LU + two-column solve.
template <typename T>
struct LuSolve {
  la::Matrix<T> factors;
  la::Matrix<T> solution;
};

/// Build, factor and solve the drawn problem on a `workers`-wide engine.
/// With a `cache`, a doomed twin is factored and solved first so that the
/// returned run replays both captured epochs; `replayed` then reports
/// whether it really did.
template <typename T>
LuSolve<T> run_lu_solve(const ProblemConfig& c, int workers,
                        SchedulerPolicy policy,
                        rt::GraphCache* cache = nullptr,
                        bool* replayed = nullptr) {
  FemBemProblem<T> problem(c.n, 1.0, c.height);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine eng({.num_workers = workers, .policy = policy});
  if (cache != nullptr) {
    auto doomed = TileHMatrix<T>::build(eng, problem.points(), gen,
                                        tileh_options(c));
    doomed.factorize(eng, cache);
    la::Matrix<T> b = make_rhs<T>(doomed.size());
    doomed.solve(eng, b.view(), cache);
  }
  const auto replayed_before = eng.replay_stats().replayed;
  auto a = TileHMatrix<T>::build(eng, problem.points(), gen, tileh_options(c));
  a.factorize(eng, cache);
  LuSolve<T> out;
  out.factors = a.to_dense_original();
  out.solution = make_rhs<T>(a.size());
  a.solve(eng, out.solution.view(), cache);
  if (replayed != nullptr)
    *replayed = eng.replay_stats().replayed >= replayed_before + 2;
  return out;
}

/// The real workload: multi-threaded Tile-H LU factors, and the solve run
/// through them, must be bit-identical to the 1-worker sequential run. STF
/// serializes every tile's updates in submission order, so any divergence
/// means the lock-light scheduler violated a dependency.
template <typename T>
std::optional<std::string> live_lu_divergence(const ProblemConfig& c,
                                              const Sweep& sw) {
  try {
    const LuSolve<T> ref = run_lu_solve<T>(c, 1, SchedulerPolicy::Priority);
    const LuSolve<T> got = run_lu_solve<T>(c, sw.workers, sw.policy);
    if (auto d = first_divergence(got.factors, ref.factors, "factor"))
      return d;
    return first_divergence(got.solution, ref.solution, "solution");
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

class LockLightLu : public ::testing::TestWithParam<Sweep> {};

TEST_P(LockLightLu, FactorsBitMatchSequentialReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(sw, ProblemConfig::draw(rng),
                    [&sw](const ProblemConfig& c) {
                      return live_lu_divergence<double>(c, sw);
                    });
}

INSTANTIATE_TEST_SUITE_P(Prop, LockLightLu,
                         ::testing::ValuesIn(locklight_sweep({17})),
                         sweep_name);

/// Same contract in complex arithmetic, the element type of the paper's
/// FEM/BEM problems (and of the benchmark's Tile-H LU).
class LockLightLuComplex : public ::testing::TestWithParam<Sweep> {};

TEST_P(LockLightLuComplex, FactorsAndSolveBitMatchSequentialReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(sw, ProblemConfig::draw(rng),
                    [&sw](const ProblemConfig& c) {
                      return live_lu_divergence<std::complex<double>>(c, sw);
                    });
}

INSTANTIATE_TEST_SUITE_P(Prop, LockLightLuComplex,
                         ::testing::ValuesIn(locklight_sweep({23})),
                         sweep_name);

/// Replayed epochs across widths: the factorization and the solve,
/// captured through a GraphCache and replayed on a fresh identical matrix
/// at N workers, must bit-match the LIVE 1-worker run. prop_replay compares
/// replay with live at one width; this closes the loop to the sequential
/// referee, including the 1-worker replay path.
class LockLightReplay : public ::testing::TestWithParam<Sweep> {};

TEST_P(LockLightReplay, ReplayedFactorsAndSolveBitMatchSequentialReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          const LuSolve<double> ref =
              run_lu_solve<double>(c, 1, SchedulerPolicy::Priority);
          rt::GraphCache cache(8);
          bool replayed = false;
          const LuSolve<double> got = run_lu_solve<double>(
              c, sw.workers, sw.policy, &cache, &replayed);
          if (!replayed)
            return std::string(
                "cache primed but the second factor+solve did not replay");
          if (auto d = first_divergence(got.factors, ref.factors,
                                        "replayed factor"))
            return d;
          return first_divergence(got.solution, ref.solution,
                                  "replayed solution");
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, LockLightReplay,
                         ::testing::ValuesIn(locklight_sweep({17},
                                                             {1, 2, 4, 8})),
                         sweep_name);

}  // namespace
}  // namespace hcham
