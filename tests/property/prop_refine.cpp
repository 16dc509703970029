// Property: the native refined solve (core::solve_refined, fp64 factors
// plus residual/correction sweeps against the unfactorized operator)
// reaches its auto-derived residual target within a small sweep budget and
// is schedule-independent: the solution is bit-identical to the 1-worker
// Priority referee across every scheduler policy and worker count, and a
// second solve served from the structure-keyed graph cache (replay)
// reproduces the first bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bem/testcase.hpp"
#include "core/hchameleon.hpp"
#include "prop_utils.hpp"
#include "runtime/graph_cache.hpp"

namespace hcham {
namespace {

using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using rt::Engine;
using hcham::testing::prop::check_with_shrink;
using hcham::testing::prop::ProblemConfig;
using hcham::testing::prop::Sweep;
using hcham::testing::prop::sweep_name;

constexpr int kMaxIters = 5;
constexpr index_t kRhs = 2;

/// policies x {1, 2, 4, 8} workers; one seed keeps the sweep affordable
/// (each point builds and factorizes twice, for itself and the referee).
std::vector<Sweep> refine_sweep() {
  std::vector<Sweep> out;
  for (const rt::SchedulerPolicy p :
       {rt::SchedulerPolicy::WorkStealing,
        rt::SchedulerPolicy::LocalityWorkStealing,
        rt::SchedulerPolicy::Priority})
    for (const int w : {1, 2, 4, 8}) out.push_back(Sweep{61, p, w});
  return out;
}

bool bit_equal(const la::Matrix<double>& a, const la::Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) *
                         static_cast<std::size_t>(a.rows() * a.cols())) == 0;
}

struct RefinedRun {
  la::Matrix<double> x;         ///< first solve (live, captured)
  la::Matrix<double> x_replay;  ///< second solve (replayed from the cache)
  core::RefinementResult rr;
};

/// Build op + factors under (policy, workers), then refine the same RHS
/// twice through one graph cache with the auto target.
RefinedRun refined_solve_under(const ProblemConfig& c,
                               rt::SchedulerPolicy policy, int workers,
                               std::uint64_t seed) {
  FemBemProblem<double> problem(c.n, 1.0, c.height);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  TileHOptions opts;
  opts.tile_size = c.tile_size;
  opts.clustering.leaf_size = c.leaf_size;
  opts.hmatrix.compression.eps = c.eps;

  Engine eng({.num_workers = workers, .policy = policy});
  rt::GraphCache cache;
  auto op = TileHMatrix<double>::build(eng, problem.points(), gen, opts);
  auto f = TileHMatrix<double>::build(eng, problem.points(), gen, opts);
  f.factorize(eng, &cache);

  const auto b = la::Matrix<double>::random(c.n, kRhs, seed + 7);
  RefinedRun run;
  run.x = la::Matrix<double>::from_view(b.cview());
  run.rr = core::solve_refined(f, op, eng, run.x.view(), kMaxIters,
                               /*target_residual=*/0.0, /*cholesky=*/false,
                               &cache);
  run.x_replay = la::Matrix<double>::from_view(b.cview());
  core::solve_refined(f, op, eng, run.x_replay.view(), kMaxIters,
                      /*target_residual=*/0.0, /*cholesky=*/false, &cache);
  return run;
}

class RefinedSolve : public ::testing::TestWithParam<Sweep> {};

TEST_P(RefinedSolve, ReachesAutoTargetAndBitMatchesAcrossSchedules) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          const RefinedRun got =
              refined_solve_under(c, sw.policy, sw.workers, sw.seed);
          std::ostringstream s;
          if (!(got.rr.target > 0.0) ||
              got.rr.final_residual > got.rr.target) {
            s << "residual " << got.rr.final_residual
              << " missed the auto target " << got.rr.target << " after "
              << got.rr.iterations << " sweeps";
            return s.str();
          }
          if (!bit_equal(got.x, got.x_replay))
            return std::string("replayed refined solve differs from the live "
                               "one (bit mismatch)");
          // Referee: same graphs, 1 worker, Priority order.
          const RefinedRun ref = refined_solve_under(
              c, rt::SchedulerPolicy::Priority, 1, sw.seed);
          if (got.rr.iterations != ref.rr.iterations) {
            s << "sweep count " << got.rr.iterations << " vs referee "
              << ref.rr.iterations;
            return s.str();
          }
          if (!bit_equal(got.x, ref.x))
            return std::string("refined solve is schedule-dependent (bit "
                               "mismatch against the 1-worker referee)");
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, RefinedSolve,
                         ::testing::ValuesIn(refine_sweep()), sweep_name);

}  // namespace
}  // namespace hcham
