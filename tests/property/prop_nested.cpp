// Properties of nested sub-epochs (DESIGN.md section 11): a Tile-H
// factorization whose H-tile kernels expand into nested task graphs must
// be bit-identical to the same factorization with nesting disabled, for LU
// and Cholesky, factors and solves, across every scheduler policy at
// {1, 2, 4, 8} workers (8 > hardware cores forces preemption inside the
// steal protocol), and also when the parent epoch is replayed from the
// graph cache (the captured tile closures re-open their sub-epochs).
//
// HCHAM_NESTED_FORCE=1 opens the gate regardless of size/occupancy so the
// parallel path is exercised even on tiny shrunk problems; the referee
// runs under HCHAM_NESTED_DISABLE=1 at the SAME policy/worker count, so
// any divergence is attributable to the nested expansion alone.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <vector>

#include "bem/testcase.hpp"
#include "core/tile_h.hpp"
#include "prop_utils.hpp"
#include "runtime/engine.hpp"
#include "runtime/graph_cache.hpp"
#include "test_utils.hpp"

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

// The nested gate reads its knobs per sub-epoch.
using hcham::testing::ScopedEnv;

/// seeds x {ws, lws, prio} x {1, 2, 4, 8} workers. 1 worker runs the
/// calling thread (sub-epochs gate to inline: no worker context); the
/// multi-worker points put owner-help and cross-epoch stealing under load.
std::vector<Sweep> nested_sweep(std::initializer_list<std::uint64_t> seeds) {
  std::vector<Sweep> out;
  for (const std::uint64_t s : seeds)
    for (const SchedulerPolicy p :
         {SchedulerPolicy::WorkStealing,
          SchedulerPolicy::LocalityWorkStealing, SchedulerPolicy::Priority})
      for (const int w : {1, 2, 4, 8}) out.push_back(Sweep{s, p, w});
  return out;
}

struct RunResult {
  la::Matrix<double> factor;
  la::Matrix<double> x;
};

/// Factor + solve one drawn problem. `replay` factors and solves a first
/// copy through a graph cache (capture) and returns the results of a
/// second copy run through the same cache (replay) — nested sub-epochs
/// open inside the replayed tile closures.
RunResult run_once(const ProblemConfig& c, const Sweep& sw, bool cholesky,
                   bool replay) {
  FemBemProblem<double> problem(c.n, 1.0, c.height);
  auto gen = [&problem](index_t i, index_t j) {
    return problem.entry(i, j);
  };
  TileHOptions opts;
  opts.tile_size = c.tile_size;
  opts.clustering.leaf_size = c.leaf_size;
  opts.hmatrix.compression.eps = c.eps;

  Engine eng({.num_workers = sw.workers, .policy = sw.policy});
  rt::GraphCache cache;
  rt::GraphCache* gc = replay ? &cache : nullptr;
  auto rhs = la::Matrix<double>::random(c.n, 1, sw.seed + 7);

  const int rounds = replay ? 2 : 1;
  RunResult out{la::Matrix<double>(0, 0), la::Matrix<double>(0, 0)};
  for (int r = 0; r < rounds; ++r) {  // round 0 captures, round 1 replays
    auto a = TileHMatrix<double>::build(eng, problem.points(), gen, opts);
    if (cholesky)
      a.factorize_cholesky(eng, gc);
    else
      a.factorize(eng, gc);
    la::Matrix<double> x = la::Matrix<double>::from_view(rhs.cview());
    if (cholesky)
      a.solve_cholesky(eng, x.view(), gc);
    else
      a.solve(eng, x.view(), gc);
    out = RunResult{a.to_dense_original(), std::move(x)};
  }
  return out;
}

std::optional<std::string> compare(const RunResult& got,
                                   const RunResult& ref) {
  for (index_t j = 0; j < ref.factor.cols(); ++j)
    for (index_t i = 0; i < ref.factor.rows(); ++i)
      if (got.factor(i, j) != ref.factor(i, j)) {
        std::ostringstream s;
        s << "factor entry (" << i << "," << j
          << ") diverged from the nesting-disabled referee: "
          << got.factor(i, j) << " vs " << ref.factor(i, j);
        return s.str();
      }
  for (index_t i = 0; i < ref.x.rows(); ++i)
    if (got.x(i, 0) != ref.x(i, 0)) {
      std::ostringstream s;
      s << "solution entry " << i
        << " diverged from the nesting-disabled referee: " << got.x(i, 0)
        << " vs " << ref.x(i, 0);
      return s.str();
    }
  return std::nullopt;
}

std::optional<std::string> nested_matches_disabled(const ProblemConfig& c,
                                                   const Sweep& sw,
                                                   bool cholesky,
                                                   bool replay) {
  try {
    RunResult ref{la::Matrix<double>(0, 0), la::Matrix<double>(0, 0)};
    {
      ScopedEnv disable("HCHAM_NESTED_DISABLE", "1");
      ref = run_once(c, sw, cholesky, /*replay=*/false);
    }
    RunResult got{la::Matrix<double>(0, 0), la::Matrix<double>(0, 0)};
    {
      ScopedEnv force("HCHAM_NESTED_FORCE", "1");
      got = run_once(c, sw, cholesky, replay);
    }
    return compare(got, ref);
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

class NestedLu : public ::testing::TestWithParam<Sweep> {};

TEST_P(NestedLu, FactorsAndSolvesBitMatchDisabledReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        return nested_matches_disabled(c, sw, /*cholesky=*/false,
                                       /*replay=*/false);
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, NestedLu,
                         ::testing::ValuesIn(nested_sweep({17, 29})),
                         sweep_name);

class NestedCholesky : public ::testing::TestWithParam<Sweep> {};

TEST_P(NestedCholesky, FactorsAndSolvesBitMatchDisabledReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        return nested_matches_disabled(c, sw, /*cholesky=*/true,
                                       /*replay=*/false);
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, NestedCholesky,
                         ::testing::ValuesIn(nested_sweep({19})),
                         sweep_name);

class NestedUnderReplay : public ::testing::TestWithParam<Sweep> {};

/// The replayed parent epoch re-binds the captured tile closures, each of
/// which re-runs the nested gate and re-opens its sub-epoch: the replayed
/// nested factorization must still bit-match the live nesting-disabled
/// referee.
TEST_P(NestedUnderReplay, ReplayedNestedFactorizationBitMatchesReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        return nested_matches_disabled(c, sw, /*cholesky=*/false,
                                       /*replay=*/true);
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, NestedUnderReplay,
                         ::testing::ValuesIn(nested_sweep({23})),
                         sweep_name);

}  // namespace
}  // namespace hcham
