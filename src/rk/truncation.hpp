// Rank truncation (recompression) of Rk-matrices, the operation that keeps
// H-arithmetic log-linear (paper Section II-A).
//
// The standard QR+SVD scheme is used: factor U = Qu Ru and V = Qv Rv, take
// the SVD of the small core Ru Rv^H, and keep the singular triplets above
// the relative tolerance (and below the rank cap). Rounded addition
// concatenates factors and truncates; the concatenation is exact, so the
// lazy accumulator (accumulator.hpp) can defer the truncate across many
// additions without losing accuracy.
//
// One rank-revealing kernel does the work, for every caller:
//   - Qu and Qv are never formed. la::geqrt leaves their reflectors and
//     compact-WY T blocks in arena copies of the factors, and la::gemqrt
//     applies them to the r-column results with three GEMMs per block, so
//     the factor side costs O(m k r) instead of O(m k^2).
//   - Cores built from concatenated updates are rank-deficient, where a
//     plain one-sided Jacobi needs 20-40 sweeps. The core is first deflated
//     by the Householder column-pivoted QR (la::qr_pivoted_rank), core ~=
//     Qc Rc, stopped once the dropped block weighs ||R22||_F <= eps / 10 *
//     (first pivot norm), and Jacobi runs on Rc^H, whose columns the
//     pivoting has graded (Drmac-Veselic preconditioned Jacobi, SIAM J.
//     Matrix Anal. Appl. 29, 2008): a handful of sweeps on about rank-many
//     columns. The first pivot norm is at most sigma_max, so the deflation
//     moves singular values by at most a tenth of the tolerance and
//     select_rank still makes the final cut at eps * sigma_0.
// All intermediate factors come from the thread's workspace arena
// (workspace.hpp), so steady-state truncations allocate only for the final
// factors.
#pragma once

#include <algorithm>
#include <limits>

#include "common/counters.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "la/workspace.hpp"
#include "rk/rk_matrix.hpp"

namespace hcham::rk {

/// Truncation control: keep sigma_i > eps * sigma_0, at most max_rank
/// triplets (max_rank < 0 means unbounded).
struct TruncationParams {
  double eps = 1e-6;
  index_t max_rank = -1;

  /// Rank to keep from `count` singular values sorted decreasing.
  template <typename R>
  index_t select_rank(const R* sigma, index_t count) const {
    index_t r = 0;
    if (count > 0) {
      const double cutoff = eps * static_cast<double>(sigma[0]);
      for (index_t i = 0; i < count; ++i)
        if (static_cast<double>(sigma[i]) > cutoff) ++r;
    }
    if (max_rank >= 0) r = std::min(r, max_rank);
    return r;
  }
};

namespace detail {

/// Householder QR of an arena copy of a factor f (rows x k): `qr` holds R
/// above and the reflectors below the diagonal, `t` their compact-WY
/// blocks, `r` (min(rows, k) x k) the upper-trapezoidal R with explicit
/// zeros below.
template <typename T>
struct FactorQr {
  la::MatrixView<T> qr;
  la::MatrixView<T> t;
  la::MatrixView<T> r;
};

template <typename T>
FactorQr<T> factor_qr(la::WorkspaceScope& ws, la::ConstMatrixView<T> f) {
  const index_t m = f.rows();
  const index_t k = f.cols();
  const index_t kq = std::min(m, k);
  FactorQr<T> out{ws.matrix<T>(m, k), ws.matrix<T>(la::geqrt_nb(m, k), kq),
                  ws.matrix<T>(kq, k)};
  la::copy(f, out.qr);
  la::geqrt(out.qr, out.t);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < kq; ++i) out.r(i, j) = i <= j ? out.qr(i, j) : T{};
  return out;
}

/// out (rows x r) <- Q [s; 0], where the leading min(rows, k) rows of out
/// hold s on entry: zero the rest, then rotate back by f's reflectors.
template <typename T>
void apply_q(const FactorQr<T>& f, la::MatrixView<T> out) {
  const index_t kq = f.r.rows();
  for (index_t j = 0; j < out.cols(); ++j)
    for (index_t i = kq; i < out.rows(); ++i) out(i, j) = T{};
  la::gemqrt(la::ConstMatrixView<T>(f.qr), la::ConstMatrixView<T>(f.t), kq,
             out);
}

/// Rank-revealing SVD of a small matrix c (p x q), which it overwrites:
/// c ~= (Qc Y) diag(sigma) X^H with rank columns. c is deflated by the
/// pivoted QR c ~= Qc Rc (Qc: p x rank, rows of Rc in pivot order), stopped
/// once the dropped block has ||R22||_F <= tol * (first pivot norm) <=
/// tol * sigma_max(c), and the one-sided Jacobi runs on Rc^H = X
/// diag(sigma) Y^H (q x rank). tol is a
/// tenth of the truncation tolerance, floored at kk * eps of the scalar
/// type: the deflation moves select_rank's cut at params.eps * sigma_0 by
/// at most a tenth of it, and Jacobi sees about rank-many columns.
template <typename T>
struct CoreSvd {
  index_t rank;
  la::MatrixView<T> qc;  ///< p x rank, orthonormal
  la::MatrixView<T> y;   ///< rank x rank
  la::MatrixView<T> x;   ///< q x rank, right singular vectors of c
  real_t<T>* sigma;      ///< rank values, decreasing
};

template <typename T>
CoreSvd<T> core_svd(la::WorkspaceScope& ws, la::MatrixView<T> c,
                    const TruncationParams& params) {
  using R = real_t<T>;
  const index_t p = c.rows();
  const index_t q = c.cols();
  const index_t kk = std::min(p, q);
  la::MatrixView<T> qc = ws.matrix<T>(p, kk);
  la::MatrixView<T> rc = ws.matrix<T>(kk, q);
  const double rtol = std::max(
      static_cast<double>(kk) * std::numeric_limits<R>::epsilon(),
      params.eps / 10);
  const index_t rank = la::qr_pivoted_rank<T>(c, qc, rc, rtol);
  la::MatrixView<T> rch = ws.matrix<T>(q, rank);
  for (index_t j = 0; j < rank; ++j)
    for (index_t i = 0; i < q; ++i) rch(i, j) = conj_if(rc(j, i));
  CoreSvd<T> out{rank, qc.block(0, 0, p, rank), ws.matrix<T>(rank, rank),
                 ws.matrix<T>(q, rank), ws.alloc<R>(rank)};
  if (rank > 0)
    la::svd_into<T>(la::ConstMatrixView<T>(rch), out.x, out.sigma, out.y);
  return out;
}

/// Leading r columns of the left factor, scaled: out (p x r) <- Qc Y_r
/// diag(sigma_r).
template <typename T>
void scaled_left(const CoreSvd<T>& s, index_t r, la::MatrixView<T> out) {
  la::gemm(la::Op::NoTrans, la::Op::NoTrans, T{1},
           la::ConstMatrixView<T>(s.qc),
           la::ConstMatrixView<T>(s.y).block(0, 0, s.rank, r), T{}, out);
  for (index_t j = 0; j < r; ++j) {
    const T sj = T(s.sigma[j]);
    for (index_t i = 0; i < out.rows(); ++i) out(i, j) *= sj;
  }
}

}  // namespace detail

/// Truncate `a` in place to the requested accuracy. Returns the new rank.
template <typename T>
index_t truncate(RkMatrix<T>& a, const TruncationParams& params) {
  if (a.rank() == 0) {
    a.mark_compressed();
    return 0;
  }
  arith_counters().bump(arith_counters().truncations);
  la::WorkspaceScope ws;
  const detail::FactorQr<T> fu = detail::factor_qr(ws, a.u().cview());
  const detail::FactorQr<T> fv = detail::factor_qr(ws, a.v().cview());
  const index_t ku = fu.r.rows();
  const index_t kv = fv.r.rows();
  la::MatrixView<T> core = ws.matrix<T>(ku, kv);
  la::gemm(la::Op::NoTrans, la::Op::ConjTrans, T{1},
           la::ConstMatrixView<T>(fu.r), la::ConstMatrixView<T>(fv.r), T{},
           core);
  const detail::CoreSvd<T> s = detail::core_svd(ws, core, params);
  const index_t r = params.select_rank(s.sigma, s.rank);
  if (r == 0) {
    a.set_zero();
    return 0;
  }

  // New U = Qu [Qc Y_r Sigma_r; 0], new V = Qv [X_r; 0].
  la::Matrix<T> nu(a.rows(), r), nv(a.cols(), r);
  detail::scaled_left(s, r, nu.view().block(0, 0, ku, r));
  detail::apply_q(fu, nu.view());
  la::copy(la::ConstMatrixView<T>(s.x).block(0, 0, kv, r),
           nv.view().block(0, 0, kv, r));
  detail::apply_q(fv, nv.view());
  a.set_factors(std::move(nu), std::move(nv));
  return r;
}

/// Compress only the factor columns [from, rank) of `c` in place -- the
/// pending tail of an accumulator target -- leaving the leading columns
/// untouched. Rank revelation on the small core is the column-pivoted QR
/// alone, stopped at the truncation tolerance itself instead of a tenth of
/// it, with no SVD: a compaction only needs rank CONTROL, and the eventual
/// flush still runs the SVD truncation for the accuracy contract. The
/// dropped block has ||R22||_F <= eps * sigma_max(tail), so a compaction is
/// no less accurate than the rounded addition of the same contributions
/// would have been. The block stays pending (the watermark does not rise):
/// head and tail are jointly recompressed by the eventual flush.
template <typename T>
index_t compact_tail(RkMatrix<T>& c, index_t from,
                     const TruncationParams& params) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t kp = c.rank() - from;
  if (kp <= 0) return c.rank();

  la::WorkspaceScope ws;
  const detail::FactorQr<T> fu =
      detail::factor_qr(ws, c.u().cview().block(0, from, m, kp));
  const detail::FactorQr<T> fv =
      detail::factor_qr(ws, c.v().cview().block(0, from, n, kp));
  const index_t ku = fu.r.rows();
  const index_t kv = fv.r.rows();
  la::MatrixView<T> core = ws.matrix<T>(ku, kv);
  la::gemm(la::Op::NoTrans, la::Op::ConjTrans, T{1},
           la::ConstMatrixView<T>(fu.r), la::ConstMatrixView<T>(fv.r), T{},
           core);
  const index_t kk = std::min(ku, kv);
  la::MatrixView<T> qc = ws.matrix<T>(ku, kk);
  la::MatrixView<T> rc = ws.matrix<T>(kk, kv);
  const index_t r =
      la::qr_pivoted_rank<T>(core, qc, rc, params.eps, params.max_rank);
  // New tail U = Qu [Qc_r; 0], V = Qv [Rc_r^H; 0].
  la::MatrixView<T> nu = ws.matrix<T>(m, r);
  la::MatrixView<T> nv = ws.matrix<T>(n, r);
  la::copy(la::ConstMatrixView<T>(qc).block(0, 0, ku, r),
           nu.block(0, 0, ku, r));
  for (index_t j = 0; j < r; ++j)
    for (index_t i = 0; i < kv; ++i) nv(i, j) = conj_if(rc(j, i));
  detail::apply_q(fu, nu);
  detail::apply_q(fv, nv);
  c.replace_tail(from, la::ConstMatrixView<T>(nu), la::ConstMatrixView<T>(nv));
  return c.rank();
}

namespace detail {

/// Truncate after a rounded addition unless a cheap bound shows it cannot
/// reduce the rank: when the combined rank already fits under the cap and
/// every triplet's Frobenius weight s_i = |u_i| |v_i| stays above the
/// relative tolerance, dropping any triplet would violate the requested
/// accuracy, so keeping all of them (which is exact) is the right answer.
template <typename T>
void truncate_unless_tight(RkMatrix<T>& c, const TruncationParams& params) {
  using R = real_t<T>;
  const index_t k = c.rank();
  if (params.max_rank >= 0 && k <= params.max_rank && k > 0) {
    R smin = std::numeric_limits<R>::max();
    R ssum{};
    for (index_t j = 0; j < k; ++j) {
      const R s = la::nrm2(c.rows(), c.u().cview().col(j)) *
                  la::nrm2(c.cols(), c.v().cview().col(j));
      smin = std::min(smin, s);
      ssum += s;
    }
    if (smin > R(params.eps) * ssum) {
      c.mark_compressed();
      arith_counters().bump(arith_counters().rounded_add_fastpaths);
      return;
    }
  }
  truncate(c, params);
}

}  // namespace detail

/// c += alpha * u * v^H, followed by truncation (unless provably tight).
template <typename T>
void rounded_add_factors(RkMatrix<T>& c, T alpha, la::ConstMatrixView<T> u,
                         la::ConstMatrixView<T> v,
                         const TruncationParams& params) {
  HCHAM_CHECK(c.rows() == u.rows() && c.cols() == v.rows());
  if (u.cols() == 0 || alpha == T{}) return;
  arith_counters().bump(arith_counters().rounded_adds);
  c.append_factors(alpha, u, v);
  detail::truncate_unless_tight(c, params);
}

/// c += alpha * a, followed by truncation ("rounded addition").
template <typename T>
void rounded_add(RkMatrix<T>& c, T alpha, const RkMatrix<T>& a,
                 const TruncationParams& params) {
  HCHAM_CHECK(c.rows() == a.rows() && c.cols() == a.cols());
  if (a.is_zero() || alpha == T{}) return;
  rounded_add_factors(c, alpha, a.u().cview(), a.v().cview(), params);
}

/// Rounded addition consuming `a`: when c is zero the scaled factors are
/// moved into place instead of copied, and truncation is skipped when
/// provably tight.
template <typename T>
void rounded_add(RkMatrix<T>& c, T alpha, RkMatrix<T>&& a,
                 const TruncationParams& params) {
  HCHAM_CHECK(c.rows() == a.rows() && c.cols() == a.cols());
  if (a.is_zero() || alpha == T{}) return;
  arith_counters().bump(arith_counters().rounded_adds);
  if (c.rank() == 0) {
    arith_counters().bump(arith_counters().rounded_add_fastpaths);
    la::scal(alpha, a.u().view());
    c.set_factors(std::move(a.u()), std::move(a.v()));
    detail::truncate_unless_tight(c, params);
    return;
  }
  c.append_factors(alpha, a.u().cview(), a.v().cview());
  detail::truncate_unless_tight(c, params);
}

/// Compress a dense block into an RkMatrix by truncated SVD (the same
/// deflated Jacobi kernel as truncate, applied to the block itself).
template <typename T>
RkMatrix<T> compress_svd(la::ConstMatrixView<T> a,
                         const TruncationParams& params) {
  RkMatrix<T> result(a.rows(), a.cols());
  if (a.empty()) return result;
  la::WorkspaceScope ws;
  la::MatrixView<T> c = ws.matrix<T>(a.rows(), a.cols());
  la::copy(a, c);
  const detail::CoreSvd<T> s = detail::core_svd(ws, c, params);
  const index_t r = params.select_rank(s.sigma, s.rank);
  if (r == 0) return result;
  la::Matrix<T> u(a.rows(), r);
  detail::scaled_left(s, r, u.view());
  result.set_factors(std::move(u),
                     la::Matrix<T>::from_view(
                         la::ConstMatrixView<T>(s.x).block(0, 0, a.cols(), r)));
  return result;
}

}  // namespace hcham::rk
