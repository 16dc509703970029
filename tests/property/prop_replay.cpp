// Properties of graph capture & replay (DESIGN.md section 10): a replayed
// Tile-H factorization or solve must be bit-identical to the live STF run
// under every policy and worker count, because replay dispatches the same
// dependency graph the live engine inferred — any divergence means the
// captured CSR edges or the replay scheduler dropped a dependency.
// Replay-after-replay must be idempotent for the same reason. Runs under
// TSan via the `property` + `replay` labels: the replay worker loop
// (batched release, surplus wakes) is exactly the code a data race would
// hide in.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
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
using rt::GraphCache;
using rt::SchedulerPolicy;
using hcham::testing::prop::check_with_shrink;
using hcham::testing::prop::ProblemConfig;
using hcham::testing::prop::Sweep;
using hcham::testing::prop::sweep_name;

/// seeds x {ws, lws, prio} x {1, 2, 4, 8} workers: 1 covers the sequential
/// replay path, 8 oversubscribes the host so the lock-light replay loop
/// preempts mid-protocol.
std::vector<Sweep> replay_sweep(
    std::initializer_list<std::uint64_t> seeds = {31, 47}) {
  std::vector<Sweep> out;
  for (const std::uint64_t s : seeds)
    for (const SchedulerPolicy p :
         {SchedulerPolicy::WorkStealing,
          SchedulerPolicy::LocalityWorkStealing, SchedulerPolicy::Priority})
      for (const int w : {1, 2, 4, 8}) out.push_back(Sweep{s, p, w});
  return out;
}

TileHOptions options_for(const ProblemConfig& c) {
  TileHOptions opts;
  opts.tile_size = c.tile_size;
  opts.clustering.leaf_size = c.leaf_size;
  opts.hmatrix.compression.eps = c.eps;
  return opts;
}

std::optional<std::string> compare_bits(const la::Matrix<double>& got,
                                        const la::Matrix<double>& want,
                                        const char* what) {
  for (index_t j = 0; j < got.cols(); ++j)
    for (index_t i = 0; i < got.rows(); ++i)
      if (got(i, j) != want(i, j)) {
        std::ostringstream s;
        s << what << " entry (" << i << "," << j
          << ") diverged from the live run: " << got(i, j) << " vs "
          << want(i, j);
        return s.str();
      }
  return std::nullopt;
}

class ReplayLu : public ::testing::TestWithParam<Sweep> {};

/// Factorize three identical matrices on one engine+cache: live (capture),
/// first replay, second replay. All three factor sets must be bit-equal.
TEST_P(ReplayLu, ReplayedFactorsBitMatchLiveAndAreIdempotent) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          FemBemProblem<double> problem(c.n, 1.0, c.height);
          auto gen = [&problem](index_t i, index_t j) {
            return problem.entry(i, j);
          };
          const TileHOptions opts = options_for(c);

          Engine eng({.num_workers = sw.workers, .policy = sw.policy});
          GraphCache cache(8);
          auto live = TileHMatrix<double>::build(eng, problem.points(), gen,
                                                 opts);
          live.factorize(eng, &cache);  // miss: captures
          const la::Matrix<double> want = live.to_dense_original();

          for (const char* pass : {"first replay", "second replay"}) {
            auto m = TileHMatrix<double>::build(eng, problem.points(), gen,
                                                opts);
            m.factorize(eng, &cache);
            if (auto d = compare_bits(m.to_dense_original(), want, pass))
              return d;
          }
          if (eng.replay_stats().replayed < 2)
            return "cache never replayed (signature mismatch between "
                   "identical builds?)";
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, ReplayLu, ::testing::ValuesIn(replay_sweep()),
                         sweep_name);

class ReplaySolve : public ::testing::TestWithParam<Sweep> {};

/// One factored matrix, one RHS panel: the live solve and two replayed
/// solves of bit-identical copies must produce bit-identical solutions.
TEST_P(ReplaySolve, ReplayedSolveBitMatchesLiveAndIsIdempotent) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          FemBemProblem<double> problem(c.n, 1.0, c.height);
          auto gen = [&problem](index_t i, index_t j) {
            return problem.entry(i, j);
          };
          const TileHOptions opts = options_for(c);
          constexpr index_t kRhs = 3;

          Engine eng({.num_workers = sw.workers, .policy = sw.policy});
          auto a = TileHMatrix<double>::build(eng, problem.points(), gen,
                                              opts);
          a.factorize(eng);

          la::Matrix<double> rhs(c.n, kRhs);
          Rng rrng(c.n * 7919 + 13);
          for (index_t j = 0; j < kRhs; ++j)
            for (index_t i = 0; i < c.n; ++i)
              rhs(i, j) = rrng.uniform(-1.0, 1.0);

          la::Matrix<double> live = la::Matrix<double>::from_view(rhs.view());
          a.solve(eng, live.view());  // no cache: pure live STF

          GraphCache cache(8);
          for (const char* pass :
               {"capture solve", "first replayed solve",
                "second replayed solve"}) {
            la::Matrix<double> x = la::Matrix<double>::from_view(rhs.view());
            a.solve(eng, x.view(), &cache);
            if (auto d = compare_bits(x, live, pass)) return d;
          }
          if (eng.replay_stats().replayed < 2)
            return "solve cache never replayed";
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, ReplaySolve,
                         ::testing::ValuesIn(replay_sweep({31})), sweep_name);

}  // namespace
}  // namespace hcham
