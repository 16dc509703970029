// Householder QR (xGEQRF / xORGQR / xORMQR style) used by the low-rank
// truncation kernels: the thin U/V factors are factored in place, and their
// Q is applied to the small truncated results by ormqr instead of being
// formed.
//
// Conventions follow LAPACK's zlarfg/zgeqrf: each reflector is
//   H(i) = I - tau_i * v_i * v_i^H,  v_i = (1; stored below the diagonal),
// H(i) is unitary, H(i)^H maps the working column to beta * e1 with beta
// real, the factorization applies H^H so that A <- R, and Q = H(1)...H(k).
//
// geqrf is blocked for wide trailing updates: reflectors are accumulated a
// panel (kQrNb columns) at a time into the compact WY form
// Q = I - V T V^H (xLARFT), and the trailing matrix is updated with three
// GEMMs (xLARFB) so the bulk of the flops runs on the packed register-tiled
// engine.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "common/scalar.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"

namespace hcham::la {

namespace detail {

/// Generate an elementary reflector for the vector (alpha; x) of length n.
/// On exit alpha holds beta (real), x holds the reflector tail, tau the
/// scalar factor. n includes the alpha component.
template <typename T>
void larfg(index_t n, T& alpha, T* x, T& tau) {
  using R = real_t<T>;
  const index_t m = n - 1;  // tail length
  const R xnorm = nrm2(m, x);
  const R alpha_re = scalar_traits<T>::real(alpha);
  R alpha_im{};
  if constexpr (is_complex_v<T>) alpha_im = alpha.imag();

  if (xnorm == R{} && alpha_im == R{}) {
    tau = T{};
    return;
  }
  R beta = -std::copysign(std::hypot(abs_val(alpha), xnorm), alpha_re);
  if constexpr (is_complex_v<T>) {
    tau = T((beta - alpha_re) / beta, -alpha_im / beta);
  } else {
    tau = (beta - alpha) / beta;
  }
  const T scale = T{1} / (alpha - T(beta));
  for (index_t i = 0; i < m; ++i) x[i] *= scale;
  alpha = T(beta);
}

/// Apply H^H (conj_tau = true) or H (false) to C from the left, where the
/// reflector is v = (1; vtail) over all rows of C.
template <typename T>
void apply_reflector(const T* vtail, index_t m, T tau, bool conj_tau,
                     MatrixView<T> c) {
  if (tau == T{}) return;
  const T t = conj_tau ? conj_if(tau) : tau;
  for (index_t j = 0; j < c.cols(); ++j) {
    T* cj = c.col(j);
    // w = v^H * C(:, j)
    T w = cj[0] + dotc(m - 1, vtail, cj + 1);
    w *= t;
    cj[0] -= w;
    for (index_t i = 1; i < m; ++i) cj[i] -= vtail[i - 1] * w;
  }
}

/// Unblocked in-place QR of a (reflectors below the diagonal, R above).
template <typename T>
void geqrf_unblocked(MatrixView<T> a, T* tau) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = m < n ? m : n;
  for (index_t j = 0; j < k; ++j) {
    larfg(m - j, a(j, j), &a(j + 1 < m ? j + 1 : j, j), tau[j]);
    if (j + 1 < n) {
      apply_reflector(m - j > 1 ? &a(j + 1, j) : nullptr, m - j, tau[j],
                      /*conj_tau=*/true, a.block(j, j + 1, m - j, n - j - 1));
    }
  }
}

/// Build the compact-WY triangular factor T (forward, columnwise storage,
/// xLARFT): Q = H(1)...H(k) = I - V T V^H. v holds the panel as produced by
/// geqrf_unblocked (reflector tails below the diagonal; the diagonal/upper
/// part holds R and is read as the implicit unit diagonal). t is k x k; only
/// its upper triangle is written, the rest is zeroed.
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const index_t m = v.rows();
  const index_t k = v.cols();
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < k; ++i) t(i, j) = T{};
  for (index_t i = 0; i < k; ++i) {
    const T ti = tau[i];
    if (ti == T{}) continue;  // H(i) = I; the column stays zero.
    // t(0:i, i) = -tau_i * V(i:m, 0:i)^H * v_i, with v_i = (1; tail).
    for (index_t j = 0; j < i; ++j) {
      T acc = conj_if(v(i, j));  // v_i(i) = 1 implicit
      const T* vj = v.col(j);
      const T* vi = v.col(i);
      for (index_t l = i + 1; l < m; ++l) acc += conj_if(vj[l]) * vi[l];
      t(j, i) = -ti * acc;
    }
    // t(0:i, i) = T(0:i, 0:i) * t(0:i, i), an upper-triangular matvec done
    // in place: row j only reads entries l >= j, so ascending j is safe.
    for (index_t j = 0; j < i; ++j) {
      T acc{};
      for (index_t l = j; l < i; ++l) acc += t(j, l) * t(l, i);
      t(j, i) = acc;
    }
    t(i, i) = ti;
  }
}

/// Apply Q^H = I - V T^H V^H from the left (xLARFB, forward/columnwise):
/// C <- C - V * (T^H * (V^H * C)) via three GEMMs. v is the m x k unit
/// lower-trapezoidal reflector block with an explicit unit diagonal and
/// explicit zeros above it; t is the k x k factor from larft.
template <typename T>
void larfb_left_ctrans(ConstMatrixView<T> v, ConstMatrixView<T> t,
                       MatrixView<T> c) {
  const index_t k = v.cols();
  const index_t n = c.cols();
  WorkspaceScope ws;
  MatrixView<T> w = ws.matrix<T>(k, n);
  gemm(Op::ConjTrans, Op::NoTrans, T{1}, v, ConstMatrixView<T>(c), T{}, w);
  MatrixView<T> w2 = ws.matrix<T>(k, n);
  gemm(Op::ConjTrans, Op::NoTrans, T{1}, t, ConstMatrixView<T>(w), T{}, w2);
  gemm(Op::NoTrans, Op::NoTrans, T{-1}, v, ConstMatrixView<T>(w2), T{1}, c);
}

}  // namespace detail

/// Householder QR in place: on exit the upper triangle of A holds R and the
/// reflectors are stored below the diagonal. tau must hold min(m, n) entries.
/// Wide problems are processed a panel at a time with blocked (compact-WY)
/// trailing updates; nb defaults to kQrNb.
template <typename T>
void geqrf(MatrixView<T> a, T* tau, index_t nb = kQrNb) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = m < n ? m : n;
  if (k <= nb || n <= nb + nb / 2) {
    detail::geqrf_unblocked(a, tau);
    return;
  }
  WorkspaceScope ws;
  MatrixView<T> t = ws.matrix<T>(nb, nb);
  MatrixView<T> vfull = ws.matrix<T>(m, nb);
  for (index_t j = 0; j < k; j += nb) {
    const index_t jb = std::min(nb, k - j);
    MatrixView<T> panel = a.block(j, j, m - j, jb);
    detail::geqrf_unblocked(panel, tau + j);
    if (j + jb < n) {
      detail::larft(ConstMatrixView<T>(panel), tau + j,
                    t.block(0, 0, jb, jb));
      // Materialize V with explicit unit diagonal / zero upper triangle so
      // the update can run as plain GEMMs.
      MatrixView<T> v = vfull.block(0, 0, m - j, jb);
      for (index_t jj = 0; jj < jb; ++jj) {
        T* vj = v.col(jj);
        for (index_t i = 0; i < jj; ++i) vj[i] = T{};
        vj[jj] = T{1};
        const T* pj = panel.col(jj);
        for (index_t i = jj + 1; i < m - j; ++i) vj[i] = pj[i];
      }
      detail::larfb_left_ctrans(ConstMatrixView<T>(v),
                                ConstMatrixView<T>(t).block(0, 0, jb, jb),
                                a.block(j, j + jb, m - j, n - j - jb));
    }
  }
}

/// Form the thin Q factor (m x k) from the output of geqrf into `q`
/// (m x k, fully overwritten). a is the factored matrix (reflectors below
/// the diagonal), k <= min(m, n).
template <typename T>
void orgqr_into(ConstMatrixView<T> a, const T* tau, index_t k,
                MatrixView<T> q) {
  const index_t m = a.rows();
  HCHAM_CHECK(k <= a.cols() && k <= m);
  HCHAM_CHECK(q.rows() == m && q.cols() == k);
  q.set_identity();
  for (index_t i = k - 1; i >= 0; --i) {
    detail::apply_reflector(m - i > 1 ? &a(i + 1, i) : nullptr, m - i, tau[i],
                            /*conj_tau=*/false,
                            q.block(i, i, m - i, k - i));
  }
}

/// Form the thin Q factor (m x k) from the output of geqrf.
template <typename T>
Matrix<T> orgqr(ConstMatrixView<T> a, const T* tau, index_t k) {
  Matrix<T> q(a.rows(), k);
  orgqr_into(a, tau, k, q.view());
  return q;
}

/// Apply the Q of geqrf's output from the left without forming it (xORMQR,
/// side L, no transpose): C (m x p) <- Q C, Q = H(0)...H(k-1) held as the
/// reflectors below the diagonal of a (m rows), k <= min(m, a.cols()).
/// Costs ~4 m k p flops against orgqr_into's ~4 m k^2 plus a GEMM, which
/// is what the truncation kernels save: they rotate r << k columns back.
template <typename T>
void ormqr(ConstMatrixView<T> a, const T* tau, index_t k, MatrixView<T> c) {
  const index_t m = a.rows();
  HCHAM_CHECK(k <= a.cols() && k <= m);
  HCHAM_CHECK(c.rows() == m);
  for (index_t i = k - 1; i >= 0; --i) {
    detail::apply_reflector(m - i > 1 ? &a(i + 1, i) : nullptr, m - i, tau[i],
                            /*conj_tau=*/false,
                            c.block(i, 0, m - i, c.cols()));
  }
}

/// Greedy column-pivoted truncated QR via modified Gram-Schmidt:
/// a (m x n) ~= q(:, 0:r) * rr(0:r, :) with rr's columns kept in ORIGINAL
/// order (no permutation to undo). The factorization stops as soon as the
/// largest remaining column norm falls below rtol times the first pivot
/// norm (or at max_rank >= 0 columns), so the cost is O(m n r) -- linear
/// in the revealed rank r rather than cubic in n. The dropped residual is
/// column-wise below rtol * |first pivot|, which makes this the right tool
/// for rank CONTROL of intermediate accumulations; final accuracy-bearing
/// truncations should keep using the SVD path.
///
/// q must be at least m x min(m, n) (first r columns written, orthonormal),
/// rr at least min(m, n) x n (fully zeroed, first r rows filled). Returns r.
template <typename T>
index_t qr_pivoted_rank(ConstMatrixView<T> a, MatrixView<T> q,
                        MatrixView<T> rr, double rtol,
                        index_t max_rank = -1) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();
  index_t kmax = m < n ? m : n;
  if (max_rank >= 0 && max_rank < kmax) kmax = max_rank;
  HCHAM_CHECK(q.rows() == m && q.cols() >= kmax);
  HCHAM_CHECK(rr.rows() >= kmax && rr.cols() == n);
  rr.set_zero();

  WorkspaceScope ws;
  MatrixView<T> w = ws.matrix<T>(m, n);
  copy(a, w);
  char* used = ws.alloc<char>(n);
  for (index_t j = 0; j < n; ++j) used[j] = 0;

  R norm0{};
  index_t rank = 0;
  while (rank < kmax) {
    // Exact remaining norms (no downdating drift); n and m are small here.
    index_t p = -1;
    R best{};
    for (index_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      const R nj = nrm2(m, w.col(j));
      if (p < 0 || nj > best) {
        best = nj;
        p = j;
      }
    }
    if (rank == 0) norm0 = best;
    if (p < 0 || !(best > R(rtol) * norm0)) break;
    T* wp = w.col(p);
    // One re-orthogonalization pass keeps MGS honest on graded columns.
    for (index_t l = 0; l < rank; ++l) {
      const T* ql = q.col(l);
      T cl{};
      for (index_t i = 0; i < m; ++i) cl += conj_if(ql[i]) * wp[i];
      rr(l, p) += cl;
      for (index_t i = 0; i < m; ++i) wp[i] -= ql[i] * cl;
    }
    const R pn = nrm2(m, wp);
    used[p] = 1;
    if (!(pn > R(rtol) * norm0)) continue;  // collapsed under re-orth
    T* qk = q.col(rank);
    const R inv = R(1) / pn;
    for (index_t i = 0; i < m; ++i) qk[i] = wp[i] * T(inv);
    rr(rank, p) = T(pn);
    for (index_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      T* wj = w.col(j);
      T cj{};
      for (index_t i = 0; i < m; ++i) cj += conj_if(qk[i]) * wj[i];
      rr(rank, j) = cj;
      for (index_t i = 0; i < m; ++i) wj[i] -= qk[i] * cj;
    }
    ++rank;
  }
  return rank;
}

/// Thin QR with owning outputs: A (m x n) -> Q (m x k), R (k x n upper
/// trapezoidal), k = min(m, n). A is not modified.
template <typename T>
void qr_thin(ConstMatrixView<T> a, Matrix<T>& q, Matrix<T>& r) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = m < n ? m : n;
  q.reset(m, k);
  r.reset(k, n);
  WorkspaceScope ws;
  MatrixView<T> work = ws.matrix<T>(m, n);
  copy(a, work);
  T* tau = ws.alloc<T>(k);
  geqrf(work, tau);
  orgqr_into(ConstMatrixView<T>(work), tau, k, q.view());
  r.set_zero();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= (j < k - 1 ? j : k - 1); ++i)
      r(i, j) = work(i, j);
}

}  // namespace hcham::la
