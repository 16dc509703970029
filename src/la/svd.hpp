// Singular value decomposition via one-sided Jacobi (Hestenes), valid for
// real and complex scalars.
//
// One-sided Jacobi applies unitary plane rotations to the columns of A until
// they are mutually orthogonal; the column norms are then the singular
// values, the normalized columns form U, and the accumulated rotations form
// V, i.e. A = U * diag(sigma) * V^H. Jacobi is simple, robust and highly
// accurate, but its sweep count depends on the input: on the rank-deficient
// cores of concatenated low-rank updates it needs 20-40 sweeps, and each
// sweep costs O(n^2) column pairs. The truncation kernel (rk/truncation.hpp)
// therefore never hands it a raw core: it first deflates the core with a
// column-pivoted QR stopped at a tenth of the truncation tolerance and runs
// Jacobi on the transposed triangular factor (Drmac-Veselic
// preconditioning), which has about rank-many columns and converges in a
// handful of sweeps. svd_into itself is the plain full SVD, used as the
// test referee. Every call adds its sweeps to the `svd_sweeps` counter and
// its column count to `svd_columns`, and a call that stops at the sweep cap
// bumps `svd_unconverged`.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/counters.hpp"
#include "common/scalar.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"

namespace hcham::la {

/// Result of svd(): A (m x n) = U (m x k) * diag(sigma) (k) * V^H (k x n),
/// with k = min(m, n) and sigma sorted in decreasing order.
template <typename T>
struct SvdResult {
  Matrix<T> u;
  std::vector<real_t<T>> sigma;
  Matrix<T> v;  ///< n x k; columns are right singular vectors.
};

namespace detail {

/// Core one-sided Jacobi for m >= n. Works in place on `work` (m x n) and
/// accumulates rotations into `v` (n x n, starts as identity). The squared
/// column norms are computed at the start of each sweep and carried through
/// the rotations (app - t*|apq|, aqq + t*|apq|), so a pair costs one dotc;
/// a carried norm that drops below sqrt(eps) of its old value has lost its
/// relative accuracy to cancellation and is recomputed.
template <typename T>
void jacobi_sweeps(MatrixView<T> work, MatrixView<T> v) {
  using R = real_t<T>;
  const index_t m = work.rows();
  const index_t n = work.cols();
  const R eps = std::numeric_limits<R>::epsilon();
  const R tol = std::sqrt(static_cast<R>(m)) * eps;
  const R drop = std::sqrt(eps);
  const int max_sweeps = 42;
  WorkspaceScope ws;
  R* d = ws.alloc<R>(n);
  const auto carried = [&](index_t j, R old, R updated) {
    d[j] = updated > drop * old ? updated : norm_fro_sq(m, work.col(j));
  };

  int sweeps = 0;
  bool rotated = true;
  while (rotated && sweeps < max_sweeps) {
    rotated = false;
    ++sweeps;
    for (index_t j = 0; j < n; ++j) d[j] = norm_fro_sq(m, work.col(j));
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        T* cp = work.col(p);
        T* cq = work.col(q);
        const R app = d[p];
        const R aqq = d[q];
        const T apq = dotc(m, cp, cq);  // cp^H cq
        // A complex |apq| without hypot: |apq| <= sqrt(app * aqq), so its
        // square overflows no sooner than the unscaled norms do.
        const R off =
            is_complex_v<T> ? std::sqrt(abs_sq(apq)) : abs_val(apq);
        if (off <= tol * std::sqrt(app * aqq) || off == R{}) continue;
        rotated = true;

        // Phase factor making the off-diagonal Gram entry real positive:
        // multiply column q (and V column q) by phi = conj(apq) / |apq|.
        // For real scalars this reduces to the sign of apq.
        const T phi = conj_if(apq) / T(off);

        // Real Jacobi rotation on the 2x2 Gram [[app, off], [off, aqq]].
        const R tau = (aqq - app) / (R{2} * off);
        const R t = std::copysign(
            R{1} / (std::abs(tau) + std::sqrt(R{1} + tau * tau)), tau);
        const R cs = R{1} / std::sqrt(R{1} + t * t);
        const R sn = cs * t;

        // (x, y) <- (cs x - sn phi y, sn x + cs phi y) on columns p, q.
        const T a = sn * phi;
        const T b = cs * phi;
        const auto rotate = [&](index_t len, T* HCHAM_RESTRICT x,
                                T* HCHAM_RESTRICT y) {
          for (index_t i = 0; i < len; ++i) {
            const T wp = x[i];
            const T wq = y[i];
            x[i] = cs * wp - a * wq;
            y[i] = sn * wp + b * wq;
          }
        };
        rotate(m, cp, cq);
        carried(p, app, app - t * off);
        carried(q, aqq, aqq + t * off);
        rotate(n, v.col(p), v.col(q));
      }
    }
  }
  ArithCounters& ctr = arith_counters();
  ctr.bump(ctr.svd_sweeps, static_cast<std::uint64_t>(sweeps));
  ctr.bump(ctr.svd_columns, static_cast<std::uint64_t>(n));
  if (rotated) ctr.bump(ctr.svd_unconverged);
}

}  // namespace detail

/// Thin SVD into caller-provided storage: A (m x n) = U diag(sigma) V^H
/// with k = min(m, n); u is m x k, v is n x k, sigma holds k values sorted
/// decreasing. All outputs are fully overwritten; A is not modified.
/// Scratch comes from the thread's workspace arena.
template <typename T>
void svd_into(ConstMatrixView<T> a, MatrixView<T> u, real_t<T>* sigma_out,
              MatrixView<T> v) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();

  if (m < n) {
    // SVD of A^H = U' S V'^H  =>  A = V' S U'^H.
    WorkspaceScope ws;
    MatrixView<T> ah = ws.matrix<T>(n, m);
    for (index_t j = 0; j < m; ++j)
      for (index_t i = 0; i < n; ++i) ah(i, j) = conj_if(a(j, i));
    svd_into<T>(ConstMatrixView<T>(ah), v, sigma_out, u);
    return;
  }
  HCHAM_CHECK(u.rows() == m && u.cols() == n);
  HCHAM_CHECK(v.rows() == n && v.cols() == n);

  WorkspaceScope ws;
  MatrixView<T> work = ws.matrix<T>(m, n);
  copy(a, work);
  MatrixView<T> vw = ws.matrix<T>(n, n);
  vw.set_identity();
  detail::jacobi_sweeps(work, vw);

  // Extract singular values and left vectors.
  R* sigma = ws.alloc<R>(n);
  for (index_t j = 0; j < n; ++j) sigma[j] = nrm2(m, work.col(j));

  // Sort decreasing.
  index_t* order = ws.alloc<index_t>(n);
  std::iota(order, order + n, index_t{0});
  std::sort(order, order + n,
            [&](index_t x, index_t y) { return sigma[x] > sigma[y]; });

  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[j];
    const R s = sigma[src];
    sigma_out[j] = s;
    const T* wc = work.col(src);
    T* uc = u.col(j);
    if (s > R{}) {
      const T inv = T(R{1} / s);
      for (index_t i = 0; i < m; ++i) uc[i] = wc[i] * inv;
    } else {
      for (index_t i = 0; i < m; ++i) uc[i] = T{};
      // Keep U well-formed for rank-deficient inputs: unit vector.
      if (j < m) uc[j] = T{1};
    }
    const T* vc = vw.col(src);
    T* rvc = v.col(j);
    for (index_t i = 0; i < n; ++i) rvc[i] = vc[i];
  }
}

/// Full (thin) SVD with owning outputs; A is not modified.
template <typename T>
SvdResult<T> svd(ConstMatrixView<T> a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = m < n ? m : n;
  SvdResult<T> result;
  result.u.reset(m, k);
  result.v.reset(n, k);
  result.sigma.resize(static_cast<std::size_t>(k));
  svd_into<T>(a, result.u.view(), result.sigma.data(), result.v.view());
  return result;
}

/// Numerical rank of a singular-value sequence at relative tolerance tol.
template <typename R>
index_t numerical_rank(const std::vector<R>& sigma, R tol) {
  if (sigma.empty()) return 0;
  const R cutoff = tol * sigma.front();
  index_t r = 0;
  for (const R s : sigma) {
    if (s > cutoff) ++r;
  }
  return r;
}

}  // namespace hcham::la
