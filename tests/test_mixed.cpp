// Mixed-precision factorization path and refinement correctness:
//  * solve_refined reports FRESH residuals when it exits after max_iters
//    (the stale-residual regression), for double AND float;
//  * the auto residual target scales with eps(real_t<T>) so float
//    refinement converges instead of burning max_iters every solve;
//  * TileHMatrix::convert_to preserves structure and values;
//  * fp32 factors + promoted refinement recover fp64-level forward error;
//  * serve::Session mixed build + SolverService stats plumbing
//    (mixed_precision flag, graph counters in plain snapshot, queue peak
//    sampled at push);
//  * bounded env parsing degrades hostile values to defaults.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bem/testcase.hpp"
#include "core/hchameleon.hpp"
#include "core/mixed.hpp"
#include "lifecycle/config.hpp"
#include "serve/solver_service.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using hcham::testing::ScopedEnv;

using namespace std::chrono_literals;
using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using la::Matrix;
using rt::Engine;

TileHOptions make_options(index_t nb, double eps) {
  TileHOptions opts;
  opts.tile_size = nb;
  opts.clustering.leaf_size = 32;
  opts.hmatrix.compression.eps = eps;
  return opts;
}

template <typename T>
Matrix<T> rhs_for(const TileHMatrix<T>& m, const Matrix<T>& x0) {
  Matrix<T> b(x0.rows(), x0.cols());
  for (index_t c = 0; c < x0.cols(); ++c) {
    std::vector<T> y(static_cast<std::size_t>(x0.rows()), T{});
    m.matvec(T{1}, x0.view().col(c), T{0}, y.data());
    la::unpack_column(y.data(), b.view(), c);
  }
  return b;
}

/// Residuals of X against the ORIGINAL b through op's matvec — the same
/// arithmetic solve_refined uses internally, recomputed independently.
template <typename T>
std::vector<double> fresh_residuals(const TileHMatrix<T>& op,
                                    const Matrix<T>& b0, const Matrix<T>& x) {
  const index_t n = b0.rows();
  std::vector<double> out;
  std::vector<T> xi(static_cast<std::size_t>(n));
  std::vector<T> r(static_cast<std::size_t>(n));
  for (index_t c = 0; c < b0.cols(); ++c) {
    for (index_t i = 0; i < n; ++i) {
      xi[static_cast<std::size_t>(i)] = x(i, c);
      r[static_cast<std::size_t>(i)] = b0(i, c);
    }
    op.matvec(T{-1}, xi.data(), T{1}, r.data());
    const double bn = la::nrm2(n, b0.data() + c * n);
    out.push_back(bn > 0.0 ? la::nrm2(n, r.data()) / bn : 0.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stale-residual regression: force the max_iters exit (unreachable target)
// and check the reported residuals describe the RETURNED iterate, not the
// one a correction sweep earlier.

template <typename T>
void stale_residual_regression(double factor_eps, double agreement_tol) {
  const index_t n = 420;
  FemBemProblem<T> problem(n, 1.0, 8.0);
  Engine engine({.num_workers = 2});
  const auto* p = &problem;
  auto gen = [p](index_t i, index_t j) { return p->entry(i, j); };
  const auto opts = make_options(128, factor_eps);  // loose: sweeps matter
  auto m = TileHMatrix<T>::build(engine, problem.points(), gen, opts);
  auto op = TileHMatrix<T>::build(engine, problem.points(), gen, opts);
  m.factorize(engine);

  Matrix<T> x0 = Matrix<T>::random(n, 2, 11);
  Matrix<T> b0 = rhs_for(op, x0);
  Matrix<T> x = Matrix<T>::from_view(b0.cview());
  // An unreachable target forces the exit through the max_iters branch —
  // exactly where the old code returned pre-correction residuals.
  auto rr = core::solve_refined(m, op, engine, x.view(), /*max_iters=*/2,
                                /*target_residual=*/1e-300);
  ASSERT_EQ(rr.iterations, 2);

  const std::vector<double> fresh = fresh_residuals(op, b0, x);
  ASSERT_EQ(rr.column_residuals.size(), fresh.size());
  double fresh_max = 0.0;
  for (std::size_t c = 0; c < fresh.size(); ++c) {
    EXPECT_NEAR(rr.column_residuals[c], fresh[c],
                agreement_tol * std::max(1.0, fresh[c]))
        << "column " << c << " reports a stale residual";
    fresh_max = std::max(fresh_max, fresh[c]);
  }
  EXPECT_NEAR(rr.final_residual, fresh_max,
              agreement_tol * std::max(1.0, fresh_max));
}

TEST(SolveRefined, ResidualFreshAfterMaxItersDouble) {
  stale_residual_regression<double>(1e-3, 1e-12);
}

TEST(SolveRefined, ResidualFreshAfterMaxItersFloat) {
  stale_residual_regression<float>(1e-2, 1e-5);
}

// The old fixed default (1e-14) was unreachable for float, so refinement
// always burned max_iters sweeps. The auto target (<= 0 sentinel) must let
// float refinement STOP before an absurd iteration budget.
TEST(SolveRefined, AutoTargetConvergesForFloat) {
  const index_t n = 400;
  FemBemProblem<float> problem(n, 1.0f, 8.0f);
  Engine engine({.num_workers = 2});
  const auto* p = &problem;
  auto gen = [p](index_t i, index_t j) { return p->entry(i, j); };
  const auto opts = make_options(128, 1e-4);
  auto m = TileHMatrix<float>::build(engine, problem.points(), gen, opts);
  auto op = TileHMatrix<float>::build(engine, problem.points(), gen, opts);
  m.factorize(engine);

  Matrix<float> x0 = Matrix<float>::random(n, 2, 9);
  Matrix<float> b = rhs_for(op, x0);
  auto rr = core::solve_refined(m, op, engine, b.view(), /*max_iters=*/10);
  EXPECT_GT(rr.target, 0.0);  // auto target was derived
  // Scaled to float eps: reachable, and reached without burning the budget.
  EXPECT_GE(rr.target, 64.0 * std::numeric_limits<float>::epsilon());
  EXPECT_LE(rr.final_residual, rr.target);
  EXPECT_LT(rr.iterations, 10);
}

// ---------------------------------------------------------------------------
// Precision conversion.

TEST(Convert, RoundTripPreservesStructureAndValues) {
  const index_t n = 384;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  Engine engine({.num_workers = 2});
  const auto* p = &problem;
  auto gen = [p](index_t i, index_t j) { return p->entry(i, j); };
  auto m = TileHMatrix<double>::build(engine, problem.points(), gen,
                                      make_options(128, 1e-8));
  auto mf = m.convert_to<float>(engine);
  // Structure (and hence Rk ranks) preserved exactly: no re-compression.
  EXPECT_EQ(mf.stored_elements(), m.stored_elements());
  EXPECT_EQ(mf.num_tiles(), m.num_tiles());
  // Values agree to float rounding.
  Matrix<double> dd = m.to_dense_original();
  Matrix<float> df = mf.to_dense_original();
  Matrix<double> dfp(n, n);
  la::convert<double, float>(df.cview(), dfp.view());
  EXPECT_LT(testing::rel_diff<double>(dfp.cview(), dd.cview()), 1e-5);
  // norm_fro is consistent with the dense norm.
  EXPECT_NEAR(static_cast<double>(m.norm_fro()),
              static_cast<double>(la::norm_fro(dd.cview())),
              1e-8 * static_cast<double>(la::norm_fro(dd.cview())));
  // The eps override feeds the structure signature (graph-cache isolation).
  auto mf_loose = m.convert_to<float>(engine, 1e-4);
  EXPECT_NE(mf.structure_signature(), mf_loose.structure_signature());
  EXPECT_EQ(mf.structure_signature(), m.structure_signature());
}

// fp32 factors + promoted refinement reach fp64-level forward error in a
// few sweeps — the tentpole acceptance property at test scale.
TEST(Convert, MixedFactorRefinedSolveReachesFp64Error) {
  const index_t n = 420;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  Engine engine({.num_workers = 2});
  const auto* p = &problem;
  auto gen = [p](index_t i, index_t j) { return p->entry(i, j); };
  const auto opts = make_options(128, 1e-8);
  auto op = TileHMatrix<double>::build(engine, problem.points(), gen, opts);

  Matrix<double> x0 = Matrix<double>::random(n, 3, 17);
  Matrix<double> b = rhs_for(op, x0);

  // fp32 factors under a 100x looser tolerance.
  auto lo = op.convert_to<float>(engine, 1e-6);
  lo.factorize(engine);
  Matrix<double> x = Matrix<double>::from_view(b.cview());
  auto rr = core::solve_refined(lo, op, engine, x.view(), /*max_iters=*/3,
                                /*target_residual=*/1e-12);
  EXPECT_LE(rr.iterations, 3);
  EXPECT_LT(rr.final_residual, 1e-10);
  EXPECT_LT(testing::rel_diff<double>(x.cview(), x0.cview()), 1e-8);
}

TEST(Convert, MixedCholeskyAlsoRefines) {
  const index_t n = 360;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  Engine engine({.num_workers = 2});
  const auto* p = &problem;
  auto gen = [p](index_t i, index_t j) { return p->entry(i, j); };
  const auto opts = make_options(128, 1e-8);
  auto op = TileHMatrix<double>::build(engine, problem.points(), gen, opts);
  Matrix<double> x0 = Matrix<double>::random(n, 2, 23);
  Matrix<double> b = rhs_for(op, x0);
  auto lo = op.convert_to<float>(engine, 1e-6);
  lo.factorize_cholesky(engine);
  Matrix<double> x = Matrix<double>::from_view(b.cview());
  auto rr = core::solve_refined(lo, op, engine, x.view(), /*max_iters=*/4,
                                /*target_residual=*/1e-12, /*cholesky=*/true);
  EXPECT_LT(rr.final_residual, 1e-10);
  EXPECT_LT(testing::rel_diff<double>(x.cview(), x0.cview()), 1e-8);
}

// ---------------------------------------------------------------------------
// Serve integration: mixed session + stats plumbing fixes.

TEST(MixedSession, ServesThroughFp32FactorsAndReportsStats) {
  const index_t n = 384;
  FemBemProblem<double> problem(n, 1.0, 8.0);
  serve::SessionOptions so;
  so.workers = 2;
  so.factor.precision = core::FactorPrecision::Single;
  so.factor.eps = 1e-6;
  auto session = serve::Session<double>::build(
      problem.points(),
      [p = &problem](index_t i, index_t j) { return p->entry(i, j); },
      make_options(128, 1e-8), so);
  EXPECT_TRUE(session.mixed_precision());
  // Mixed forces refinement even though refine_iters defaulted to 0.
  EXPECT_GE(session.options().refine_iters, 3);

  Engine tmp({.num_workers = 1});
  auto op = TileHMatrix<double>::build(
      tmp, problem.points(),
      [p = &problem](index_t i, index_t j) { return p->entry(i, j); },
      make_options(128, 1e-8));
  Matrix<double> x0 = Matrix<double>::random(n, 2, 31);
  Matrix<double> b = rhs_for(op, x0);

  serve::SolverService<double> svc(session);
  auto rep = svc.submit(Matrix<double>::from_view(b.cview())).get();
  ASSERT_EQ(rep.status, serve::SolveStatus::Ok) << rep.error;
  EXPECT_LT(testing::rel_diff<double>(rep.x.cview(), x0.cview()), 1e-7);
  svc.stop();

  auto s = svc.stats();
  EXPECT_TRUE(s.mixed_precision);
  // Depth is now sampled at push time, so a lone submission registers a
  // nonzero peak even though pops drain the queue immediately after.
  EXPECT_GE(s.queue_peak, 1);
  const std::string j = svc.stats_json();
  EXPECT_NE(j.find("\"mixed_precision\":true"), std::string::npos) << j;
}

TEST(MixedSession, SavingFactorsIsRejectedOnTheMixedPath) {
  // The demoted factors are a preconditioner, not a restorable operator:
  // asking build() to persist them must throw instead of writing a file.
  FemBemProblem<double> problem(128, 1.0, 8.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  serve::SessionOptions so;
  so.workers = 1;
  so.factor.precision = core::FactorPrecision::Single;
  so.save_factors_to = "mixed_session_rejected.hfac";
  EXPECT_THROW(serve::Session<double>::build(problem.points(), gen,
                                             make_options(64, 1e-8), so),
               Error);
}

TEST(Stats, PlainSnapshotCarriesGraphAndMixedFields) {
  serve::ServiceStats st;
  st.record_graph(3, 7);
  st.set_mixed_precision(true);
  st.queue_depth(5);
  st.queue_depth(1);
  auto s = st.snapshot();  // NOT via SolverService::stats()
  EXPECT_EQ(s.graph_captured, 3u);
  EXPECT_EQ(s.graph_replayed, 7u);
  EXPECT_TRUE(s.mixed_precision);
  EXPECT_EQ(s.queue_depth, 1);
  EXPECT_EQ(s.queue_peak, 5);
  const std::string j = serve::to_json(s);
  EXPECT_NE(j.find("\"captured\":3"), std::string::npos);
  EXPECT_NE(j.find("\"replayed\":7"), std::string::npos);
  EXPECT_NE(j.find("\"mixed_precision\":true"), std::string::npos);
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

TEST(EnvBounded, FactorOptionsFromEnvParsesAndBounds) {
  ScopedEnv precision("HCHAM_FACTOR_PRECISION", "fp32");
  ScopedEnv eps("HCHAM_FACTOR_EPS", "1e-4");
  auto o = core::FactorOptions::from_env();
  EXPECT_TRUE(o.mixed());
  EXPECT_DOUBLE_EQ(o.eps, 1e-4);
  precision.set("native");
  eps.set("0.9");  // out of (0, 0.5]: fallback 0
  o = core::FactorOptions::from_env();
  EXPECT_FALSE(o.mixed());
  EXPECT_DOUBLE_EQ(o.eps, 0.0);
}

TEST(EnvBounded, LifecycleConfigFromEnvParsesAndBounds) {
  // Hostile values degrade to the defaults, never a clamp to an extreme.
  ScopedEnv max_rank("HCHAM_WOODBURY_MAX_RANK", "-4");
  ScopedEnv cache_bytes("HCHAM_SESSION_CACHE_BYTES", "12");  // < 4 KiB floor
  ScopedEnv store_dir("HCHAM_FACTOR_STORE_DIR", "/tmp/hcham_spill");
  auto c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 32);
  EXPECT_EQ(c.session_cache_bytes, 256ull << 20);
  EXPECT_EQ(c.factor_store_dir, "/tmp/hcham_spill");

  max_rank.set("not_a_number");
  cache_bytes.set("99999999999999999999");  // overflow
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 32);
  EXPECT_EQ(c.session_cache_bytes, 256ull << 20);

  // In-range values are taken verbatim (bounds inclusive).
  max_rank.set("1");
  cache_bytes.set("4096");
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 1);
  EXPECT_EQ(c.session_cache_bytes, 4096u);
  max_rank.set("4096");
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 4096);

  max_rank.set(nullptr);
  cache_bytes.set(nullptr);
  store_dir.set(nullptr);
  c = lifecycle::LifecycleConfig::from_env();
  EXPECT_EQ(c.woodbury_max_rank, 32);
  EXPECT_EQ(c.session_cache_bytes, 256ull << 20);
  EXPECT_TRUE(c.factor_store_dir.empty());
}

// A value the caller exported (e.g. HCHAM_FACTOR_PRECISION=fp32 for the
// fp32 CI step) must survive a test that overrides or unsets it.
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

// demoted_t / convert_scalar sanity.
TEST(Scalar, DemotionMapping) {
  static_assert(std::is_same_v<demoted_t<double>, float>);
  static_assert(std::is_same_v<demoted_t<float>, float>);
  static_assert(
      std::is_same_v<demoted_t<std::complex<double>>, std::complex<float>>);
  const std::complex<double> z{1.5, -2.5};
  const auto zf = convert_scalar<std::complex<float>>(z);
  EXPECT_FLOAT_EQ(zf.real(), 1.5f);
  EXPECT_FLOAT_EQ(zf.imag(), -2.5f);
  EXPECT_DOUBLE_EQ(convert_scalar<double>(3.0f), 3.0);
}

}  // namespace
}  // namespace hcham
