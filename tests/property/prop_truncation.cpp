// Properties of the rank-revealing truncation kernel (rk/truncation.hpp),
// on accumulated cores of the shapes H-arithmetic produces:
//
//   1. Rank: the truncated rank equals the rank the dense SVD referee
//      (la::svd on the assembled block) reveals at the same eps, for exact
//      rank deficiency ([U U] and [V V] concatenations), graded spectra
//      down to 1e-17 * sigma_0, an all-zero core, and k > min(m, n).
//   2. Accuracy: ||A - A_trunc||_F <= 10 * eps * ||A||_F, the bound
//      prop_accumulator holds the flushed accumulator to.
//   3. Convergence: the deflated Jacobi converges on every core, and on a
//      width-128 core of rank 16 within 10 sweeps (a raw Jacobi on the same
//      core takes 16-17 sweeps, and in float does not converge in 42).
//   4. Deflation at the tolerance: on a 50 x 50 core accumulated from a
//      rank-9 head and independent rank-10 updates below the tolerance,
//      the pivoted QR stops at eps / 10, so Jacobi sees at most 12 of the
//      39 columns (deflating at kk * eps handed it all 39 in double and
//      complex), while the rank and the accuracy still match the referee.
//
// Each property runs for float, double and complex<double>.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/counters.hpp"
#include "common/rng.hpp"
#include "la/la.hpp"
#include "rk/truncation.hpp"

namespace hcham {
namespace {

template <typename T>
la::Matrix<T> random_matrix(Rng& rng, index_t m, index_t n) {
  la::Matrix<T> a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.scalar<T>();
  return a;
}

/// m x k with orthonormal columns scaled by sigma (k entries).
template <typename T>
la::Matrix<T> graded_factor(Rng& rng, index_t m,
                            const std::vector<double>& sigma) {
  const index_t k = static_cast<index_t>(sigma.size());
  la::Matrix<T> q, r;
  la::qr_thin<T>(random_matrix<T>(rng, m, k).cview(), q, r);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      q(i, j) *= T(static_cast<real_t<T>>(sigma[j]));
  return q;
}

template <typename T>
la::Matrix<T> concat(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  la::Matrix<T> c(a.rows(), a.cols() + b.cols());
  la::copy(a.cview(), c.view().block(0, 0, a.rows(), a.cols()));
  la::copy(b.cview(), c.view().block(0, a.cols(), b.rows(), b.cols()));
  return c;
}

/// Tolerances placed half a decade away from every singular value the
/// graded cases generate (powers of ten), so the rank is well-defined even
/// at float precision.
template <typename T>
double test_eps() {
  return std::is_same_v<real_t<T>, float> ? std::pow(10.0, -3.5)
                                          : std::pow(10.0, -7.5);
}

struct Case {
  std::string name;
  index_t m, n;
};

/// Truncate `a` and check rank and accuracy against the dense referee.
/// Returns the columns the truncation handed to Jacobi.
template <typename T>
std::uint64_t check_against_referee(const std::string& what, rk::RkMatrix<T> a,
                           double eps) {
  const la::Matrix<T> dense = a.dense();
  const la::SvdResult<T> ref = la::svd<T>(dense.cview());
  const std::vector<double> sigma(ref.sigma.begin(), ref.sigma.end());
  const index_t ref_rank = la::numerical_rank(sigma, eps);
  const double norm = la::norm_fro(dense.cview());

  const ArithCounterSnapshot before = snapshot_arith_counters();
  const index_t r = rk::truncate(a, rk::TruncationParams{eps, -1});
  const ArithCounterSnapshot after = snapshot_arith_counters();

  EXPECT_EQ(r, ref_rank) << what;
  EXPECT_EQ(a.rank(), r) << what;
  la::Matrix<T> diff = a.dense();
  la::axpy(T{-1}, dense.cview(), diff.view());
  EXPECT_LE(la::norm_fro(diff.cview()), 10.0 * eps * norm) << what;
  EXPECT_EQ(after.svd_unconverged, before.svd_unconverged) << what;
  return after.svd_columns - before.svd_columns;
}

template <typename T>
void check_accumulated_cores(std::uint64_t seed) {
  const double eps = test_eps<T>();
  Rng rng(seed);
  const std::string tag = " (seed " + std::to_string(seed) + ")";

  // Exact rank deficiency: [U U] [V W]^H and [U W] [V V]^H have rank <= r.
  {
    const index_t m = 70, n = 50, r = 9;
    const la::Matrix<T> u = random_matrix<T>(rng, m, r);
    const la::Matrix<T> v = random_matrix<T>(rng, n, r);
    const la::Matrix<T> w = random_matrix<T>(rng, n, r);
    const la::Matrix<T> x = random_matrix<T>(rng, m, r);
    check_against_referee<T>("[U U]" + tag,
                             rk::RkMatrix<T>(concat(u, u), concat(v, w)), eps);
    check_against_referee<T>("[V V]" + tag,
                             rk::RkMatrix<T>(concat(u, x), concat(v, v)), eps);
  }

  // Graded spectrum sigma_i = 10^-i down to 1e-17, accumulated with a
  // scaled copy of itself (the core of a rounded self-addition).
  {
    const index_t m = 60, n = 45;
    std::vector<double> sigma;
    for (int i = 0; i <= 17; ++i) sigma.push_back(std::pow(10.0, -i));
    const la::Matrix<T> u = graded_factor<T>(rng, m, sigma);
    const la::Matrix<T> v =
        graded_factor<T>(rng, n, std::vector<double>(sigma.size(), 1.0));
    la::Matrix<T> u2 = la::Matrix<T>::from_view(u.cview());
    la::scal(T(real_t<T>(-0.5)), u2.view());
    check_against_referee<T>("graded" + tag,
                             rk::RkMatrix<T>(concat(u, u2), concat(v, v)), eps);
  }

  // All-zero core: the U factor vanishes.
  {
    la::Matrix<T> u(30, 6);
    u.set_zero();
    rk::RkMatrix<T> a(std::move(u), random_matrix<T>(rng, 20, 6));
    check_against_referee<T>("zero core" + tag, std::move(a), eps);
  }

  // More factor columns than rows or columns: k > min(m, n).
  for (const Case& c : {Case{"k > m", 12, 40}, Case{"k > n", 40, 10}}) {
    const index_t k = 25;
    check_against_referee<T>(
        c.name + tag,
        rk::RkMatrix<T>(random_matrix<T>(rng, c.m, k),
                        random_matrix<T>(rng, c.n, k)),
        eps);
  }
}

/// A rank-16 block accumulated eight times (width 128), the core shape of a
/// budget flush: the deflated Jacobi must converge in at most 10 sweeps.
template <typename T>
void check_sweep_guard() {
  Rng rng(7);
  const index_t m = 200, n = 180, r = 16;
  const la::Matrix<T> u0 = random_matrix<T>(rng, m, r);
  const la::Matrix<T> v0 = random_matrix<T>(rng, n, r);
  la::Matrix<T> u = la::Matrix<T>::from_view(u0.cview());
  la::Matrix<T> v = la::Matrix<T>::from_view(v0.cview());
  for (int c = 1; c < 8; ++c) {
    la::Matrix<T> uc = la::Matrix<T>::from_view(u0.cview());
    la::scal(T(static_cast<real_t<T>>(0.5 + 0.1 * c)), uc.view());
    u = concat(u, uc);
    v = concat(v, v0);
  }
  rk::RkMatrix<T> a(std::move(u), std::move(v));
  ASSERT_EQ(a.rank(), 128);
  const ArithCounterSnapshot before = snapshot_arith_counters();
  const index_t rank = rk::truncate(a, rk::TruncationParams{test_eps<T>(), -1});
  const ArithCounterSnapshot after = snapshot_arith_counters();
  EXPECT_EQ(rank, r);
  EXPECT_EQ(after.svd_unconverged, before.svd_unconverged);
  EXPECT_GT(after.svd_sweeps, before.svd_sweeps);
  EXPECT_LE(after.svd_sweeps - before.svd_sweeps, 10u);
}

/// A rank-9 head with sigma_i = 10^-i plus three independent rank-10
/// updates whose singular values fall 10 per decade from 1e-9 to 1e-12 (the
/// contributions an accumulator appends below the tolerance): 39 columns,
/// numerically full rank at kk * eps, rank 8 (double) or 4 (float) at the
/// truncation tolerance.
template <typename T>
void check_deflation_at_tolerance(std::uint64_t seed) {
  Rng rng(seed);
  const index_t m = 50, n = 50;
  std::vector<double> head;
  for (int i = 0; i < 9; ++i) head.push_back(std::pow(10.0, -i));
  la::Matrix<T> u = graded_factor<T>(rng, m, head);
  la::Matrix<T> v = graded_factor<T>(rng, n, std::vector<double>(9, 1.0));
  for (int c = 0; c < 3; ++c) {
    std::vector<double> sigma;
    for (int j = 0; j < 10; ++j) sigma.push_back(std::pow(10.0, -9 - c - j / 10.0));
    u = concat(u, graded_factor<T>(rng, m, sigma));
    v = concat(v, graded_factor<T>(rng, n, std::vector<double>(10, 1.0)));
  }
  rk::RkMatrix<T> a(std::move(u), std::move(v));
  ASSERT_EQ(a.rank(), 39);
  const std::string what = "deflation (seed " + std::to_string(seed) + ")";
  const std::uint64_t cols =
      check_against_referee<T>(what, std::move(a), test_eps<T>());
  EXPECT_GT(cols, 0u) << what;
  EXPECT_LE(cols, 12u) << what;
}

template <typename T>
class TruncationProp : public ::testing::Test {};

using Scalars = ::testing::Types<float, double, std::complex<double>>;
TYPED_TEST_SUITE(TruncationProp, Scalars);

TYPED_TEST(TruncationProp, RankAndAccuracyMatchDenseReferee) {
  for (const std::uint64_t seed : {5u, 17u, 29u})
    check_accumulated_cores<TypeParam>(seed);
}

TYPED_TEST(TruncationProp, DeflatesAtTheToleranceBeforeJacobi) {
  for (const std::uint64_t seed : {3u, 11u, 23u})
    check_deflation_at_tolerance<TypeParam>(seed);
}

TYPED_TEST(TruncationProp, Width128Rank16CoreConvergesInTenSweeps) {
  check_sweep_guard<TypeParam>();
}

}  // namespace
}  // namespace hcham
