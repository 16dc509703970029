// Properties of the batched multi-RHS solve and the solver service:
//
// 1. Scheduling determinism: the batched solve task graph produces
//    bit-identical solutions across every scheduler policy and worker
//    count (dependencies serialize all conflicting accesses, so the
//    floating-point reduction order is fixed by the graph, not the
//    schedule). The referee is the 1-worker Priority run of the SAME
//    graph shape.
// 2. Service equivalence: a SolverService fed by concurrent client
//    threads returns, for every request, the same solution the session
//    computes for that column directly (tolerance-based: the service may
//    batch the column with strangers, which widens the solve's GEMMs and
//    thus their rounding, but not the result beyond factorization
//    accuracy).
//
// Both run under TSan in CI (labels: property, serve).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "bem/testcase.hpp"
#include "prop_utils.hpp"
#include "serve/solver_service.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using namespace std::chrono_literals;
using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using rt::Engine;
using hcham::testing::rel_diff;
using hcham::testing::prop::check_with_shrink;
using hcham::testing::prop::full_sweep;
using hcham::testing::prop::ProblemConfig;
using hcham::testing::prop::Sweep;
using hcham::testing::prop::sweep_name;

TileHOptions options_for(const ProblemConfig& c) {
  TileHOptions opts;
  opts.tile_size = c.tile_size;
  opts.clustering.leaf_size = c.leaf_size;
  opts.hmatrix.compression.eps = c.eps;
  return opts;
}

/// Build + factorize + batched 8-column solve under (policy, workers);
/// returns the solution block.
la::Matrix<double> batched_solve_under(const ProblemConfig& c,
                                       rt::SchedulerPolicy policy,
                                       int workers, std::uint64_t seed) {
  FemBemProblem<double> problem(c.n, 1.0, c.height);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine eng({.num_workers = workers,
              .policy = policy,
              .check_conflicts = true});
  auto a = TileHMatrix<double>::build(eng, problem.points(), gen,
                                      options_for(c));
  a.factorize(eng);
  auto b = la::Matrix<double>::random(c.n, 8, seed + 29);
  a.solve(eng, b.view());
  return b;
}

class ServeDeterminism : public ::testing::TestWithParam<Sweep> {};

TEST_P(ServeDeterminism, BatchedSolveBitMatchesSequentialSchedule) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          // Referee: same task graph, 1 worker, Priority order.
          la::Matrix<double> ref = batched_solve_under(
              c, rt::SchedulerPolicy::Priority, 1, sw.seed);
          la::Matrix<double> got =
              batched_solve_under(c, sw.policy, sw.workers, sw.seed);
          if (got.rows() != ref.rows() || got.cols() != ref.cols())
            return "shape mismatch";
          // Bitwise: the schedule must not change a single ulp.
          if (std::memcmp(got.data(), ref.data(),
                          sizeof(double) *
                              static_cast<std::size_t>(got.rows() *
                                                       got.cols())) != 0) {
            return "batched solve is schedule-dependent (bit mismatch), "
                   "rel_diff=" +
                   std::to_string(rel_diff<double>(got.cview(), ref.cview()));
          }
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, ServeDeterminism,
                         ::testing::ValuesIn(full_sweep()), sweep_name);

class ServeService : public ::testing::TestWithParam<Sweep> {};

TEST_P(ServeService, ConcurrentRequestsMatchDirectSolve) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          FemBemProblem<double> problem(c.n, 1.0, c.height);
          serve::SessionOptions so;
          so.workers = sw.workers;
          so.policy = sw.policy;
          auto session = serve::Session<double>::build(
              problem.points(),
              [p = &problem](index_t i, index_t j) { return p->entry(i, j); },
              options_for(c), so);

          // Direct (unbatched, unthreaded) answers for 6 random columns.
          constexpr int kReqs = 6;
          auto b = la::Matrix<double>::random(c.n, kReqs, sw.seed + 41);
          auto direct = la::Matrix<double>::from_view(b.cview());
          for (index_t col = 0; col < kReqs; ++col) {
            la::MatrixView<double> v(direct.view().col(col), c.n, 1, c.n);
            session.solve_now(v);
          }

          serve::ServiceOptions opts;
          opts.max_batch_cols = 4;  // force multi-request batches + splits
          opts.batch_window = 200us;
          serve::SolverService<double> svc(session, opts);

          std::vector<std::future<serve::SolveReply<double>>> futs(kReqs);
          std::atomic<int> next{0};
          std::vector<std::thread> clients;
          clients.reserve(3);
          for (int t = 0; t < 3; ++t) {
            clients.emplace_back([&] {
              for (int i = next.fetch_add(1); i < kReqs;
                   i = next.fetch_add(1)) {
                la::Matrix<double> rhs(c.n, 1);
                la::copy_column(b.cview(), i, rhs.view(), 0);
                futs[static_cast<std::size_t>(i)] =
                    svc.submit(std::move(rhs));
              }
            });
          }
          for (auto& cl : clients) cl.join();
          for (int i = 0; i < kReqs; ++i) {
            auto rep = futs[static_cast<std::size_t>(i)].get();
            if (rep.status != serve::SolveStatus::Ok)
              return std::string("request failed: ") + rep.error;
            la::Matrix<double> want(c.n, 1);
            la::copy_column(direct.cview(), i, want.view(), 0);
            const double err =
                rel_diff<double>(rep.x.cview(), want.cview());
            // Batching changes panel widths, not the answer: the gap must
            // stay far below the factorization accuracy.
            if (!(err < 1e3 * c.eps))
              return "service answer diverged: err=" + std::to_string(err) +
                     " eps=" + std::to_string(c.eps);
          }
          svc.stop();
          const auto s = svc.stats();
          if (s.submitted != static_cast<std::uint64_t>(kReqs) ||
              s.completed != static_cast<std::uint64_t>(kReqs))
            return "accounting mismatch: submitted=" +
                   std::to_string(s.submitted) +
                   " completed=" + std::to_string(s.completed);
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Prop, ServeService,
                         ::testing::ValuesIn(full_sweep({101, 202})),
                         sweep_name);

}  // namespace
}  // namespace hcham
