// Householder QR used by the low-rank truncation kernels: the thin U/V
// factors are factored in place, and their Q is applied to the small
// truncated results by gemqrt instead of being formed.
//
// Conventions follow LAPACK's zlarfg/zgeqrt: each reflector is
//   H(i) = I - tau_i * v_i * v_i^H,  v_i = (1; stored below the diagonal),
// H(i) is unitary, H(i)^H maps the working column to beta * e1 with beta
// real, the factorization applies H^H so that A <- R, and Q = H(1)...H(k).
// The reflectors of each kQrNb-column block are kept in compact-WY form,
// H(j)...H(j+nb-1) = I - V T V^H, and geqrt returns the blocks' T factors
// (tau_i is the diagonal of T), so both the factorization and every later
// application of Q run as three GEMMs per block (xLARFB). A block itself is
// factored by the Elmroth-Gustavson recursion, which builds T by GEMM as it
// goes; only panels of at most kQrBase columns run the unblocked loop.
//
// qr_pivoted_rank is the rank-revealing variant (xGEQP3): the same
// reflectors, one column at a time with column pivoting, stopped as soon as
// the remaining block is below a tolerance. The truncation kernels run it
// on their small cores, at a tenth of the truncation tolerance before the
// SVD and at the tolerance itself for compaction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/counters.hpp"
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

/// Apply H^H to C from the left, where the reflector is v = (1; vtail)
/// over all rows of C.
template <typename T>
void apply_reflector_h(const T* vtail, index_t m, T tau, MatrixView<T> c) {
  if (tau == T{}) return;
  const T t = conj_if(tau);
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
      apply_reflector_h(m - j > 1 ? &a(j + 1, j) : nullptr, m - j, tau[j],
                        a.block(j, j + 1, m - j, n - j - 1));
    }
  }
}

/// v (m x k) <- the reflectors stored below the diagonal of a (m x k) as
/// the explicit unit lower-trapezoidal block the GEMMs read: unit diagonal,
/// zeros above it.
template <typename T>
void reflector_block(ConstMatrixView<T> a, MatrixView<T> v) {
  for (index_t j = 0; j < a.cols(); ++j) {
    T* vj = v.col(j);
    const T* aj = a.col(j);
    for (index_t i = 0; i < j; ++i) vj[i] = T{};
    vj[j] = T{1};
    for (index_t i = j + 1; i < a.rows(); ++i) vj[i] = aj[i];
  }
}

/// Unblocked compact-WY factor (xLARFT, forward columnwise) of the explicit
/// reflector block v (m x k): Q = H(1)...H(k) = I - V T V^H with T (k x k)
/// upper triangular, zeros below.
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const index_t m = v.rows();
  const index_t k = v.cols();
  t.set_zero();
  for (index_t i = 0; i < k; ++i) {
    // t(0:i, i) = -tau_i T(0:i, 0:i) V(i:m, 0:i)^H v_i, the triangular
    // product in place: row j reads only t(l, i) for l >= j.
    for (index_t j = 0; j < i; ++j)
      t(j, i) = -tau[i] * dotc(m - i, v.col(j) + i, v.col(i) + i);
    for (index_t j = 0; j < i; ++j) {
      T acc{};
      for (index_t l = j; l < i; ++l) acc += t(j, l) * t(l, i);
      t(j, i) = acc;
    }
    t(i, i) = tau[i];
  }
}

/// Join two compact-WY factors: for V = [V1 V2] with V2 zero in its first
/// k1 rows, (I - V1 T11 V1^H)(I - V2 T22 V2^H) = I - V T V^H with
/// T12 = -T11 (V1^H V2) T22. t holds T11 and T22 on entry (zeros below
/// their diagonals); T12 is written and T21 zeroed.
template <typename T>
void larft_join(ConstMatrixView<T> v, index_t k1, MatrixView<T> t) {
  const index_t m = v.rows();
  const index_t k2 = v.cols() - k1;
  WorkspaceScope ws;
  MatrixView<T> w = ws.matrix<T>(k1, k2);
  gemm(Op::ConjTrans, Op::NoTrans, T{1}, v.block(k1, 0, m - k1, k1),
       v.block(k1, k1, m - k1, k2), T{}, w);
  MatrixView<T> w2 = ws.matrix<T>(k1, k2);
  gemm(Op::NoTrans, Op::NoTrans, T{1}, ConstMatrixView<T>(w),
       ConstMatrixView<T>(t).block(k1, k1, k2, k2), T{}, w2);
  gemm(Op::NoTrans, Op::NoTrans, T{-1},
       ConstMatrixView<T>(t).block(0, 0, k1, k1), ConstMatrixView<T>(w2),
       T{}, t.block(0, k1, k1, k2));
  t.block(k1, 0, k2, k1).set_zero();
}

/// Apply Q = I - V T V^H (opt = NoTrans) or Q^H = I - V T^H V^H (opt =
/// ConjTrans) from the left (xLARFB, forward columnwise): C <- C - V *
/// (op(T) * (V^H * C)) via three GEMMs. v is the explicit m x k reflector
/// block of reflector_block, t its k x k factor. With `c_is_identity`, C
/// is known to be [I_k; 0], so V^H C is the unit upper triangle V(0:k, :)^H
/// and needs no GEMM.
template <typename T>
void larfb_left(Op opt, ConstMatrixView<T> v, ConstMatrixView<T> t,
                MatrixView<T> c, bool c_is_identity = false) {
  const index_t k = v.cols();
  const index_t n = c.cols();
  if (n == 0) return;
  WorkspaceScope ws;
  MatrixView<T> w = ws.matrix<T>(k, n);
  if (c_is_identity) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < k; ++i) w(i, j) = conj_if(v(j, i));
  } else {
    gemm(Op::ConjTrans, Op::NoTrans, T{1}, v, ConstMatrixView<T>(c), T{},
         w);
  }
  MatrixView<T> w2 = ws.matrix<T>(k, n);
  gemm(opt, Op::NoTrans, T{1}, t, ConstMatrixView<T>(w), T{}, w2);
  gemm(Op::NoTrans, Op::NoTrans, T{-1}, v, ConstMatrixView<T>(w2), T{1}, c);
}

/// Recursive QR of a panel (Elmroth-Gustavson): a (m x n, n <= m) gets R
/// above and the reflectors below its diagonal, v the explicit reflector
/// block and t its compact-WY factor. The left half is factored and applied
/// to the right half, the right half factored, and the two T factors
/// joined, so every update runs on GEMM.
template <typename T>
void geqrt_panel(MatrixView<T> a, MatrixView<T> v, MatrixView<T> t) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (n <= kQrBase) {
    T tau[kQrBase];
    geqrf_unblocked(a, tau);
    reflector_block(ConstMatrixView<T>(a), v);
    larft(ConstMatrixView<T>(v), tau, t);
    return;
  }
  const index_t n1 = n / 2;
  const index_t n2 = n - n1;
  geqrt_panel(a.block(0, 0, m, n1), v.block(0, 0, m, n1),
              t.block(0, 0, n1, n1));
  larfb_left(Op::ConjTrans, ConstMatrixView<T>(v).block(0, 0, m, n1),
             ConstMatrixView<T>(t).block(0, 0, n1, n1),
             a.block(0, n1, m, n2));
  v.block(0, n1, n1, n2).set_zero();
  geqrt_panel(a.block(n1, n1, m - n1, n2), v.block(n1, n1, m - n1, n2),
              t.block(n1, n1, n2, n2));
  larft_join(ConstMatrixView<T>(v), n1, t);
}

/// C <- Q C for Q = H(0)...H(k-1) of geqrt's output, a block at a time
/// from the last. With `identity_lead`, C starts as [I_k; 0]: its columns
/// left of block j vanish in that block's rows and are skipped, and the
/// last block meets its columns still equal to the identity.
template <typename T>
void gemqrt_blocks(ConstMatrixView<T> a, ConstMatrixView<T> t, index_t k,
                   MatrixView<T> c, bool identity_lead) {
  const index_t m = a.rows();
  HCHAM_CHECK(k <= a.cols() && k <= m && c.rows() == m);
  if (k == 0) return;
  const index_t nb = t.rows();
  WorkspaceScope ws;
  MatrixView<T> v = ws.matrix<T>(m, nb);
  for (index_t j = (k - 1) / nb * nb; j >= 0; j -= nb) {
    // The first jb reflectors of a block have the leading jb x jb of its T.
    const index_t jb = std::min(nb, k - j);
    MatrixView<T> vj = v.block(0, 0, m - j, jb);
    reflector_block(a.block(j, j, m - j, jb), vj);
    const index_t c0 = identity_lead ? j : 0;
    larfb_left(Op::NoTrans, ConstMatrixView<T>(vj), t.block(0, j, jb, jb),
               c.block(j, c0, m - j, c.cols() - c0),
               identity_lead && j + jb == k);
  }
}

}  // namespace detail

/// Rows of geqrt's T for an m x n matrix.
inline index_t geqrt_nb(index_t m, index_t n) {
  return std::min(kQrNb, std::min(m, n));
}

/// Householder QR in place (xGEQRT): on exit the upper triangle of A holds
/// R and the reflectors are stored below the diagonal. t (geqrt_nb(m, n) x
/// min(m, n)) receives the compact-WY factor of each
/// block of nb reflectors, block j's at t(0:jb, j:j+jb); tau_i = t(i % nb,
/// i). Each block is factored by the recursive panel QR and reaches the
/// trailing columns through larfb_left.
template <typename T>
void geqrt(MatrixView<T> a, MatrixView<T> t) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = m < n ? m : n;
  if (k == 0) return;
  const index_t nb = geqrt_nb(m, n);
  HCHAM_CHECK(t.rows() == nb && t.cols() == k);
  WorkspaceScope ws;
  MatrixView<T> v = ws.matrix<T>(m, nb);
  for (index_t j = 0; j < k; j += nb) {
    const index_t jb = std::min(nb, k - j);
    MatrixView<T> vj = v.block(0, 0, m - j, jb);
    MatrixView<T> tj = t.block(0, j, jb, jb);
    detail::geqrt_panel(a.block(j, j, m - j, jb), vj, tj);
    if (j + jb < n)
      detail::larfb_left(Op::ConjTrans, ConstMatrixView<T>(vj),
                         ConstMatrixView<T>(tj),
                         a.block(j, j + jb, m - j, n - j - jb));
  }
}

/// Apply the Q of geqrt's output from the left without forming it
/// (xGEMQRT, side L, no transpose): C (m x p) <- Q C, Q = H(0)...H(k-1)
/// held as the reflectors below the diagonal of a (m rows) and the T
/// blocks t, k <= min(m, a.cols()). Costs ~4 m k p flops against forming Q
/// (~4 m k^2) and a GEMM, which is what the truncation kernels save: they
/// rotate r << k columns back.
template <typename T>
void gemqrt(ConstMatrixView<T> a, ConstMatrixView<T> t, index_t k,
            MatrixView<T> c) {
  detail::gemqrt_blocks(a, t, k, c, /*identity_lead=*/false);
}

/// Form the thin Q factor (m x k) of geqrt's output into `q` (m x k, fully
/// overwritten), k <= min(m, a.cols()).
template <typename T>
void orgqr_into(ConstMatrixView<T> a, ConstMatrixView<T> t, index_t k,
                MatrixView<T> q) {
  HCHAM_CHECK(q.rows() == a.rows() && q.cols() == k);
  q.set_identity();
  detail::gemqrt_blocks(a, t, k, q, /*identity_lead=*/true);
}

/// Truncated Householder QR with column pivoting (LAPACK's xGEQP3/xLAQP2):
/// a (m x n) ~= q(:, 0:r) * rr(0:r, :) with rr's columns kept in ORIGINAL
/// order (no permutation to undo) and a real, non-negative diagonal in pivot
/// order. Each step pivots the column of largest remaining norm and
/// annihilates it below the diagonal with one reflector. The remaining
/// column norms are downdated, not recomputed; a downdate that would keep
/// less than sqrt(eps) of a norm's last exact value has cancelled and is
/// recomputed (Drmac-Bujanovic, ACM TOMS 35(2), 2008).
///
/// The factorization stops before step r once the Frobenius mass of the
/// remaining block, the sum of the carried squared norms, is at most
/// (rtol * first pivot norm)^2, or at max_rank >= 0 columns. With A P =
/// Q [R11 R12; 0 R22], the dropped residual is then ||R22||_F <= rtol *
/// max_j ||a_j|| <= rtol * ||A||_2, and the cost O(m n r) is linear in the
/// revealed rank r.
///
/// a is factored in place and left holding the reflectors and pivoted
/// columns, so callers pass a block they no longer need (or a copy).
/// q must be at least m x min(m, n) (first r columns written, orthonormal),
/// rr at least min(m, n) x n (fully zeroed, first r rows filled). Returns r.
template <typename T>
index_t qr_pivoted_rank(MatrixView<T> a, MatrixView<T> q, MatrixView<T> rr,
                        double rtol, index_t max_rank = -1) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();
  index_t kmax = m < n ? m : n;
  if (max_rank >= 0 && max_rank < kmax) kmax = max_rank;
  HCHAM_CHECK(q.rows() == m && q.cols() >= kmax);
  HCHAM_CHECK(rr.rows() >= kmax && rr.cols() == n);
  rr.set_zero();

  WorkspaceScope ws;
  MatrixView<T> w = a;
  index_t* perm = ws.alloc<index_t>(n);
  T* tau = ws.alloc<T>(kmax > 0 ? kmax : 1);
  // vn1: the carried remaining norms; vn2: each one's last exact value.
  R* vn1 = ws.alloc<R>(n);
  R* vn2 = ws.alloc<R>(n);
  R norm0{};
  for (index_t j = 0; j < n; ++j) {
    perm[j] = j;
    vn1[j] = vn2[j] = nrm2(m, w.col(j));
    norm0 = std::max(norm0, vn1[j]);
  }
  const R tol3z = std::sqrt(std::numeric_limits<R>::epsilon());
  const R inv0 = norm0 > R{} ? R(1) / norm0 : R{};
  std::uint64_t recomputes = 0;
  index_t rank = 0;
  for (; rank < kmax; ++rank) {
    // Stop on the remaining Frobenius mass, relative to the first pivot.
    R mass{};
    index_t p = rank;
    for (index_t j = rank; j < n; ++j) {
      const R s = vn1[j] * inv0;
      mass += s * s;
      if (vn1[j] > vn1[p]) p = j;
    }
    if (!(mass > R(rtol) * R(rtol))) break;
    if (p != rank) {
      std::swap_ranges(w.col(p), w.col(p) + m, w.col(rank));
      std::swap(perm[p], perm[rank]);
      vn1[p] = vn1[rank];
      vn2[p] = vn2[rank];
    }
    T* wk = w.col(rank) + rank;
    const index_t len = m - rank;
    detail::larfg(len, wk[0], len > 1 ? wk + 1 : wk, tau[rank]);
    if (rank + 1 == n) continue;
    detail::apply_reflector_h(len > 1 ? wk + 1 : nullptr, len, tau[rank],
                              w.block(rank, rank + 1, len, n - rank - 1));
    for (index_t j = rank + 1; j < n; ++j) {
      if (vn1[j] == R{}) continue;
      const R ratio = abs_val(w(rank, j)) / vn1[j];
      const R temp = std::max(R{}, (R(1) - ratio) * (R(1) + ratio));
      const R grow = vn1[j] / vn2[j];
      if (temp * grow * grow > tol3z) {
        vn1[j] *= std::sqrt(temp);
      } else {
        vn1[j] = vn2[j] = len > 1 ? nrm2(len - 1, w.col(j) + rank + 1) : R{};
        ++recomputes;
      }
    }
  }
  if (recomputes > 0)
    arith_counters().bump(arith_counters().qr_norm_recomputes, recomputes);

  // rr(0:r, perm) <- the upper trapezoid, q(:, 0:r) <- H(0)...H(r-1)
  // [I_r; 0]; a negative beta flips its row of R and column of Q, which
  // keeps the diagonal non-negative.
  for (index_t k = 0; k < n; ++k) {
    T* rk = &rr(0, perm[k]);
    const index_t top = std::min(k + 1, rank);
    for (index_t i = 0; i < top; ++i) rk[i] = w(i, k);
  }
  MatrixView<T> qr = q.block(0, 0, m, rank);
  qr.set_zero();
  for (index_t i = 0; i < rank; ++i) qr(i, i) = T{1};
  for (index_t i = rank - 1; i >= 0; --i)
    detail::apply_reflector_h(m - i > 1 ? &w(i + 1, i) : nullptr, m - i,
                              conj_if(tau[i]), qr.block(i, i, m - i, rank - i));
  for (index_t i = 0; i < rank; ++i) {
    if (!(scalar_traits<T>::real(w(i, i)) < R{})) continue;
    for (index_t k = 0; k < n; ++k) rr(i, k) = -rr(i, k);
    for (index_t l = 0; l < m; ++l) qr(l, i) = -qr(l, i);
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
  MatrixView<T> t = ws.matrix<T>(geqrt_nb(m, n), k);
  geqrt(work, t);
  orgqr_into(ConstMatrixView<T>(work), ConstMatrixView<T>(t), k, q.view());
  r.set_zero();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= (j < k - 1 ? j : k - 1); ++i)
      r(i, j) = work(i, j);
}

}  // namespace hcham::la
