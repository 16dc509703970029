// Iterative refinement on top of the approximate H-LU / H-Cholesky solve.
//
// H-factorizations are accurate only to the compression tolerance eps; a
// few refinement sweeps with the (more accurate) unfactorized compressed
// operator recover several digits at the cost of one matvec + one solve
// per sweep. This is the standard practice for loose-eps direct H-solvers.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/scalar.hpp"
#include "core/tile_h.hpp"

namespace hcham::core {

struct RefinementResult {
  int iterations = 0;
  double final_residual = 0.0;  ///< max over columns of ||b_c - A x_c|| / ||b_c||
  /// Per-column relative residuals, one entry per RHS column.
  std::vector<double> column_residuals;
  /// The convergence target actually used (the auto-derived one when the
  /// caller passed target_residual <= 0).
  double target = 0.0;
};

/// Solve A X = B in place (B <- X) with iterative refinement; B may hold
/// any number of right-hand-side columns and every sweep refines all of
/// them in one batched solve. `factored` holds LU or Cholesky factors;
/// `op` is an UNfactorized Tile-H matrix of the same problem, used for
/// residuals.
///
/// `target_residual <= 0` selects an automatic target scaled to what the
/// working precision can actually deliver: roughly
/// 64 * eps(real_t<T>) * max(1, ||A||_F * max_c ||x_c|| / ||b_c||). A fixed
/// absolute default (the old 1e-14) is unreachable for T = float and
/// forces wasted sweeps; the scaled target converges for every T.
///
/// The reported residuals are always FRESH: they are recomputed after the
/// final correction, so result.final_residual / column_residuals describe
/// the returned X, not the iterate one sweep earlier.
template <typename T>
RefinementResult solve_refined(TileHMatrix<T>& factored,
                               const TileHMatrix<T>& op, rt::Engine& engine,
                               la::MatrixView<T> b, int max_iters = 3,
                               double target_residual = 0.0,
                               bool cholesky = false,
                               rt::GraphCache* cache = nullptr) {
  const index_t n = factored.size();
  const index_t nrhs = b.cols();
  HCHAM_CHECK(b.rows() == n && nrhs >= 1);
  HCHAM_CHECK(op.size() == n);

  la::Matrix<T> rhs = la::Matrix<T>::from_view(b);
  std::vector<double> bnorm(static_cast<std::size_t>(nrhs));
  for (index_t c = 0; c < nrhs; ++c)
    bnorm[static_cast<std::size_t>(c)] = la::nrm2(n, rhs.data() + c * n);

  // Every sweep solves the same structure, so after the first sweep the
  // refinement loop runs entirely on replays.
  auto solve_inplace = [&](la::MatrixView<T> v) {
    if (cholesky) {
      factored.solve_cholesky(engine, v, cache);
    } else {
      factored.solve(engine, v, cache);
    }
  };

  solve_inplace(b);  // X0

  RefinementResult result;
  result.column_residuals.assign(static_cast<std::size_t>(nrhs), 0.0);
  la::Matrix<T> r(n, nrhs);
  std::vector<T> x(static_cast<std::size_t>(n));
  // R = RHS - A X, one matvec per column; refresh the per-column and max
  // relative residuals. Called after the initial solve and after EVERY
  // correction, so the loop can never exit with stale residuals.
  auto compute_residuals = [&] {
    la::copy(rhs.cview(), r.view());
    for (index_t c = 0; c < nrhs; ++c) {
      la::pack_column(la::ConstMatrixView<T>(b), c, x.data());
      op.matvec(T{-1}, x.data(), T{1}, r.data() + c * n);
    }
    result.final_residual = 0.0;
    for (index_t c = 0; c < nrhs; ++c) {
      const double bn = bnorm[static_cast<std::size_t>(c)];
      const double res = bn > 0.0 ? la::nrm2(n, r.data() + c * n) / bn : 0.0;
      result.column_residuals[static_cast<std::size_t>(c)] = res;
      result.final_residual = std::max(result.final_residual, res);
    }
  };
  compute_residuals();

  if (target_residual <= 0.0) {
    // Auto target in the working precision T. The ||A||_F * ||x|| / ||b||
    // amplification term accounts for ill-conditioning: for a benign
    // operator it is O(1) and the target is ~64 eps.
    const double eps_T =
        static_cast<double>(std::numeric_limits<real_t<T>>::epsilon());
    double amp = 0.0;
    const double anorm = static_cast<double>(op.norm_fro());
    for (index_t c = 0; c < nrhs; ++c) {
      const double bn = bnorm[static_cast<std::size_t>(c)];
      if (bn <= 0.0) continue;
      la::pack_column(la::ConstMatrixView<T>(b), c, x.data());
      amp = std::max(amp, anorm * la::nrm2(n, x.data()) / bn);
    }
    target_residual = 64.0 * eps_T * std::max(1.0, amp);
  }
  result.target = target_residual;

  while (result.final_residual > target_residual &&
         result.iterations < max_iters) {
    // X += A_f^-1 R: one batched solve refines every column.
    solve_inplace(r.view());
    for (index_t c = 0; c < nrhs; ++c)
      for (index_t i = 0; i < n; ++i) b(i, c) += r(i, c);
    ++result.iterations;
    compute_residuals();
  }
  return result;
}

}  // namespace hcham::core
