// Norms and reductions for dense views and raw vectors.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/scalar.hpp"
#include "la/view.hpp"

namespace hcham::la {

/// Independent partial sums behind dotc / norm_fro_sq: a reduction into
/// kReduceLanes accumulators vectorizes without reassociation flags.
/// Complex vectors are reduced as interleaved (re, im) real arrays.
inline constexpr index_t kReduceLanes = 8;

/// Squared Euclidean norm of a raw vector, unscaled: the sum of the squares
/// of its real lanes on kReduceLanes accumulators. The Jacobi sweeps use it
/// directly; norm_fro guards it against overflow and underflow.
template <typename T>
real_t<T> norm_fro_sq(index_t n, const T* x) {
  using R = real_t<T>;
  const R* xr = reinterpret_cast<const R*>(x);
  const index_t len = (is_complex_v<T> ? 2 : 1) * n;
  R acc[kReduceLanes] = {};
  index_t j = 0;
  for (; j + kReduceLanes <= len; j += kReduceLanes)
    for (index_t l = 0; l < kReduceLanes; ++l) acc[l] += xr[j + l] * xr[j + l];
  R s{};
  for (index_t l = 0; l < kReduceLanes; ++l) s += acc[l];
  for (; j < len; ++j) s += xr[j] * xr[j];
  return s;
}

namespace detail {

/// Frobenius norm by the overflow-safe scaled loop (LAPACK's classic
/// xNRM2): one modulus and a division per entry. A NaN entry gives NaN,
/// otherwise an infinite entry gives +Inf.
template <typename T>
real_t<T> norm_fro_scaled(ConstMatrixView<T> a) {
  using R = real_t<T>;
  R scale{};
  R ssq{1};
  bool inf = false;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const R v = abs_val(a(i, j));
      if (std::isnan(v)) return v;
      if (std::isinf(v)) inf = true;
      if (inf || v == R{}) continue;
      if (scale < v) {
        ssq = R{1} + ssq * (scale / v) * (scale / v);
        scale = v;
      } else {
        ssq += (v / scale) * (v / scale);
      }
    }
  }
  return inf ? std::numeric_limits<R>::infinity() : scale * std::sqrt(ssq);
}

}  // namespace detail

/// Frobenius norm, overflow- and underflow-safe. The unscaled sum of
/// squares (norm_fro_sq, per column) is exact to rounding whenever it is
/// finite and at least min / eps: then no square overflowed, and the
/// squares that underflowed weigh below eps of the sum. Otherwise --
/// entries beyond ~1e154 (double) or ~1e19 (float), all entries tiny, or
/// an Inf or NaN -- the scaled loop recomputes it.
template <typename T>
real_t<T> norm_fro(ConstMatrixView<T> a) {
  using R = real_t<T>;
  R s{};
  for (index_t j = 0; j < a.cols(); ++j) s += norm_fro_sq(a.rows(), a.col(j));
  constexpr R kSafeMin =
      std::numeric_limits<R>::min() / std::numeric_limits<R>::epsilon();
  if (s >= kSafeMin && s <= std::numeric_limits<R>::max()) return std::sqrt(s);
  return detail::norm_fro_scaled(a);
}

/// max_{ij} |a_ij|.
template <typename T>
real_t<T> norm_max(ConstMatrixView<T> a) {
  real_t<T> m{};
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) m = std::max(m, abs_val(a(i, j)));
  return m;
}

/// Euclidean norm of a raw vector.
template <typename T>
real_t<T> nrm2(index_t n, const T* x) {
  return norm_fro(ConstMatrixView<T>(x, n, 1, n > 0 ? n : 1));
}

/// Conjugated dot product x^H y.
template <typename T>
T dotc(index_t n, const T* x, const T* y) {
  using R = real_t<T>;
  constexpr index_t kW = is_complex_v<T> ? 2 : 1;  // reals per element
  const R* xr = reinterpret_cast<const R*>(x);
  const R* yr = reinterpret_cast<const R*>(y);
  // re += x_j y_j over all reals; for complex, im += x_re y_im - x_im y_re.
  R re[kReduceLanes] = {};
  R im[kReduceLanes] = {};
  const index_t len = kW * n;
  index_t j = 0;
  for (; j + kReduceLanes <= len; j += kReduceLanes) {
    for (index_t l = 0; l < kReduceLanes; ++l) {
      re[l] += xr[j + l] * yr[j + l];
      if constexpr (is_complex_v<T>)
        im[l] += (l % 2 == 0 ? xr[j + l] * yr[j + l + 1]
                             : -(xr[j + l] * yr[j + l - 1]));
    }
  }
  R sre{};
  R sim{};
  for (index_t l = 0; l < kReduceLanes; ++l) {
    sre += re[l];
    sim += im[l];
  }
  T acc;
  if constexpr (is_complex_v<T>) {
    acc = T(sre, sim);
  } else {
    acc = sre;
  }
  for (index_t i = j / kW; i < n; ++i) acc += conj_if(x[i]) * y[i];
  return acc;
}

/// (min, max) of |a_ii| over the leading square of `a`. The spread is a
/// cheap growth-factor proxy on a triangular factor: after a pivoted LU,
/// min|u_ii| / max|u_ii| collapsing toward eps flags near-singularity
/// without a condition estimator (the lifecycle capacitance check).
template <typename T>
std::pair<real_t<T>, real_t<T>> diag_abs_range(ConstMatrixView<T> a) {
  const index_t k = std::min(a.rows(), a.cols());
  if (k == 0) return {real_t<T>{}, real_t<T>{}};
  real_t<T> lo = abs_val(a(0, 0));
  real_t<T> hi = lo;
  for (index_t i = 1; i < k; ++i) {
    const real_t<T> v = abs_val(a(i, i));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

}  // namespace hcham::la
