// Packed register-tiled GEMM engine: C += alpha * op(A) * op(B).
//
// Layout follows the classic Goto/BLIS decomposition. The three cache loops
// (nc -> kc -> mc) keep one kc x nc panel of op(B) in L3, one mc x kc block
// of op(A) in L2, and one kc x nr sliver of the B panel in L1 while an
// mr x nr register tile of C is updated by a fully-unrolled microkernel.
// Both operands are repacked into contiguous, zero-padded panels:
//
//   Apack: ceil(mc/mr) panels, element (i, l) of panel p at [l*mr + i]
//          (alpha and op(A) -- transpose/conjugation -- folded in),
//   Bpack: ceil(nc/nr) panels, element (l, j) of panel q at [l*nr + j],
//
// so the microkernel only ever streams two dense buffers. The kernel is
// plain C++20 written so the compiler's auto-vectorizer turns the unrolled
// mr-loop into FMA vector code (mr/nr are chosen per instruction set below);
// an explicit AVX2+FMA double-precision kernel is provided when the build
// enables native-arch codegen (HCHAM_ENABLE_NATIVE_ARCH) on machines
// without AVX-512, where auto-vectorization of the 8x6 tile is least
// reliable.
//
// Blocking parameters and the dispatch threshold are the kGemm* constants
// below; `gemm` in gemm.hpp routes large/regular shapes here and
// keeps the axpy-style reference loops for tiny or extremely skinny cases.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#if defined(HCHAM_ENABLE_NATIVE_ARCH) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/config.hpp"
#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"

namespace hcham::la {

// ---------------------------------------------------------------------------
// Tuning: cache blocking, dispatch threshold and panel widths.
// ---------------------------------------------------------------------------

/// Cache blocking for a ~48 KiB L1 / 2 MiB L2 core: an mc x kc block of
/// op(A) stays in L2, a kc x nc panel of op(B) in L3.
inline constexpr index_t kGemmMc = 128;
inline constexpr index_t kGemmKc = 384;
inline constexpr index_t kGemmNc = 4096;
/// Smallest 2*m*n*k (8*m*n*k complex) sent to the blocked path; smaller
/// products keep the reference loops.
inline constexpr index_t kGemmMinFlops = index_t{1} << 18;
/// Panel width of the blocked TRSM/GETRF/POTRF.
inline constexpr index_t kBlasNb = 64;
/// Panel width of the blocked Householder QR.
inline constexpr index_t kQrNb = 32;

// ---------------------------------------------------------------------------
// Microkernel shape: mr x nr register tile, chosen per instruction set.
// ---------------------------------------------------------------------------

namespace detail {
#if defined(__AVX512F__)
inline constexpr int kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVecBytes = 32;
#else
inline constexpr int kVecBytes = 16;
#endif
}  // namespace detail

/// Register-tile shape of the microkernel for scalar type T, in units of T
/// elements. The real kernel uses two vector registers of rows (mr_real) by
/// enough columns to hide the FMA latency without spilling accumulators.
/// Complex products run through the same real kernel via the 1m expansion
/// (each complex entry of A packed as a 2x2 real block [re -im; im re],
/// each entry of B as [re; im]), so one complex row covers two real rows.
template <typename T>
struct GemmMicroShape {
  using real_type = real_t<T>;
  static constexpr index_t mr_real =
      std::max<index_t>(4, 2 * detail::kVecBytes /
                               static_cast<index_t>(sizeof(real_type)));
  static constexpr index_t nr_real = detail::kVecBytes >= 64 ? 8 : 6;
  static constexpr index_t mr = is_complex_v<T> ? mr_real / 2 : mr_real;
  static constexpr index_t nr = nr_real;
};

// ---------------------------------------------------------------------------
// Packing buffers come from the per-thread workspace arena (workspace.hpp):
// 64-byte aligned, retained across calls by the arena's chunk reuse, with a
// plain-allocation fallback on threads that hold no arena lease.
// ---------------------------------------------------------------------------

namespace detail {

/// Element (i, l) of op(A) where `a` is the untransposed view.
template <typename T>
inline T op_a_at(ConstMatrixView<T> a, Op op, index_t i, index_t l) {
  switch (op) {
    case Op::NoTrans: return a(i, l);
    case Op::Trans: return a(l, i);
    case Op::ConjTrans: return conj_if(a(l, i));
  }
  return T{};
}

/// Pack the mc x kc block op(A)(i0:i0+mcb, l0:l0+kcb), scaled by alpha, into
/// mr-row panels: dst[p*mr*kcb + l*mr + i], zero-padded to a full mr.
template <typename T>
void pack_a(ConstMatrixView<T> a, Op opa, T alpha, index_t i0, index_t l0,
            index_t mcb, index_t kcb, T* HCHAM_RESTRICT dst) {
  constexpr index_t mr = GemmMicroShape<T>::mr;
  for (index_t p = 0; p < mcb; p += mr) {
    const index_t mrb = std::min(mr, mcb - p);
    T* HCHAM_RESTRICT panel = dst + p * kcb;
    if (opa == Op::NoTrans) {
      for (index_t l = 0; l < kcb; ++l) {
        const T* HCHAM_RESTRICT col = a.col(l0 + l) + i0 + p;
        T* HCHAM_RESTRICT out = panel + l * mr;
        for (index_t i = 0; i < mrb; ++i) out[i] = alpha * col[i];
        for (index_t i = mrb; i < mr; ++i) out[i] = T{};
      }
    } else {
      const bool conja = (opa == Op::ConjTrans);
      for (index_t l = 0; l < kcb; ++l) {
        T* HCHAM_RESTRICT out = panel + l * mr;
        for (index_t i = 0; i < mrb; ++i) {
          const T v = a(l0 + l, i0 + p + i);
          out[i] = alpha * (conja ? conj_if(v) : v);
        }
        for (index_t i = mrb; i < mr; ++i) out[i] = T{};
      }
    }
  }
}

/// Pack the kc x nc panel op(B)(l0:l0+kcb, j0:j0+ncb) into nr-column panels:
/// dst[q*nr*kcb + l*nr + j], zero-padded to a full nr.
template <typename T>
void pack_b(ConstMatrixView<T> b, Op opb, index_t l0, index_t j0, index_t kcb,
            index_t ncb, T* HCHAM_RESTRICT dst) {
  constexpr index_t nr = GemmMicroShape<T>::nr;
  for (index_t q = 0; q < ncb; q += nr) {
    const index_t nrb = std::min(nr, ncb - q);
    T* HCHAM_RESTRICT panel = dst + q * kcb;
    if (opb == Op::NoTrans) {
      for (index_t l = 0; l < kcb; ++l) {
        T* HCHAM_RESTRICT out = panel + l * nr;
        for (index_t j = 0; j < nrb; ++j) out[j] = b(l0 + l, j0 + q + j);
        for (index_t j = nrb; j < nr; ++j) out[j] = T{};
      }
    } else {
      const bool conjb = (opb == Op::ConjTrans);
      for (index_t l = 0; l < kcb; ++l) {
        const T* HCHAM_RESTRICT col = b.col(l0 + l);
        T* HCHAM_RESTRICT out = panel + l * nr;
        for (index_t j = 0; j < nrb; ++j) {
          const T v = col[j0 + q + j];
          out[j] = conjb ? conj_if(v) : v;
        }
        for (index_t j = nrb; j < nr; ++j) out[j] = T{};
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Microkernel: C(mr x nr) += Apanel * Bpanel over kc, accumulated in
// registers. The generic version relies on full unrolling of the constexpr
// tile loops; GCC/Clang vectorize the mr-loop with FMA at -O3.
// ---------------------------------------------------------------------------

template <typename T, int MR, int NR>
inline void microkernel(index_t kc, const T* HCHAM_RESTRICT ap,
                        const T* HCHAM_RESTRICT bp, T* HCHAM_RESTRICT c,
                        index_t ldc) {
  T acc[NR][MR];
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MR; ++i) acc[j][i] = T{};
  for (index_t l = 0; l < kc; ++l) {
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      const T blj = bp[j];
#pragma GCC unroll 32
      for (int i = 0; i < MR; ++i) acc[j][i] += ap[i] * blj;
    }
    ap += MR;
    bp += NR;
  }
  for (int j = 0; j < NR; ++j) {
    T* HCHAM_RESTRICT cj = c + j * ldc;
    for (int i = 0; i < MR; ++i) cj[i] += acc[j][i];
  }
}

#if defined(HCHAM_ENABLE_NATIVE_ARCH) && defined(__AVX2__) && \
    defined(__FMA__) && !defined(__AVX512F__)
/// Hand-vectorized 8x6 double kernel for AVX2+FMA machines (without
/// AVX-512 the auto-vectorizer tends to spill the 12-accumulator tile).
template <>
inline void microkernel<double, 8, 6>(index_t kc,
                                      const double* HCHAM_RESTRICT ap,
                                      const double* HCHAM_RESTRICT bp,
                                      double* HCHAM_RESTRICT c, index_t ldc) {
  __m256d acc[6][2];
  for (int j = 0; j < 6; ++j) {
    acc[j][0] = _mm256_setzero_pd();
    acc[j][1] = _mm256_setzero_pd();
  }
  for (index_t l = 0; l < kc; ++l) {
    const __m256d a0 = _mm256_loadu_pd(ap);
    const __m256d a1 = _mm256_loadu_pd(ap + 4);
#pragma GCC unroll 6
    for (int j = 0; j < 6; ++j) {
      const __m256d b = _mm256_broadcast_sd(bp + j);
      acc[j][0] = _mm256_fmadd_pd(a0, b, acc[j][0]);
      acc[j][1] = _mm256_fmadd_pd(a1, b, acc[j][1]);
    }
    ap += 8;
    bp += 6;
  }
  for (int j = 0; j < 6; ++j) {
    double* cj = c + j * ldc;
    _mm256_storeu_pd(cj, _mm256_add_pd(_mm256_loadu_pd(cj), acc[j][0]));
    _mm256_storeu_pd(cj + 4, _mm256_add_pd(_mm256_loadu_pd(cj + 4), acc[j][1]));
  }
}

/// Matching 16x6 single-precision kernel (two 8-float vectors of rows);
/// also carries the complex<float> 1m expansion, which runs through the
/// real float microkernel. This is what makes fp32 factors (the
/// mixed-precision path) run at twice the fp64 SIMD width.
template <>
inline void microkernel<float, 16, 6>(index_t kc,
                                      const float* HCHAM_RESTRICT ap,
                                      const float* HCHAM_RESTRICT bp,
                                      float* HCHAM_RESTRICT c, index_t ldc) {
  __m256 acc[6][2];
  for (int j = 0; j < 6; ++j) {
    acc[j][0] = _mm256_setzero_ps();
    acc[j][1] = _mm256_setzero_ps();
  }
  for (index_t l = 0; l < kc; ++l) {
    const __m256 a0 = _mm256_loadu_ps(ap);
    const __m256 a1 = _mm256_loadu_ps(ap + 8);
#pragma GCC unroll 6
    for (int j = 0; j < 6; ++j) {
      const __m256 b = _mm256_broadcast_ss(bp + j);
      acc[j][0] = _mm256_fmadd_ps(a0, b, acc[j][0]);
      acc[j][1] = _mm256_fmadd_ps(a1, b, acc[j][1]);
    }
    ap += 16;
    bp += 6;
  }
  for (int j = 0; j < 6; ++j) {
    float* cj = c + j * ldc;
    _mm256_storeu_ps(cj, _mm256_add_ps(_mm256_loadu_ps(cj), acc[j][0]));
    _mm256_storeu_ps(cj + 8, _mm256_add_ps(_mm256_loadu_ps(cj + 8), acc[j][1]));
  }
}
#endif

/// 1m packing of A for complex scalars: the mc x kc complex block of
/// alpha * op(A) becomes a (2*mc) x (2*kc) real block where each entry v
/// expands to [[Re v, -Im v], [Im v, Re v]], packed into mr_real-row panels.
template <typename T>
void pack_a_1m(ConstMatrixView<T> a, Op opa, T alpha, index_t i0, index_t l0,
               index_t mcb, index_t kcb,
               typename GemmMicroShape<T>::real_type* HCHAM_RESTRICT dst) {
  constexpr index_t mr = GemmMicroShape<T>::mr_real;
  const index_t mcb_r = 2 * mcb;
  const index_t kcb_r = 2 * kcb;
  for (index_t p = 0; p < mcb_r; p += mr) {
    const index_t mrb = std::min(mr, mcb_r - p);  // even: p and mcb_r are
    auto* HCHAM_RESTRICT panel = dst + p * kcb_r;
    for (index_t l = 0; l < kcb; ++l) {
      auto* HCHAM_RESTRICT out0 = panel + (2 * l) * mr;
      auto* HCHAM_RESTRICT out1 = panel + (2 * l + 1) * mr;
      for (index_t i = 0; i < mrb; i += 2) {
        const T v = alpha * op_a_at(a, opa, i0 + (p + i) / 2, l0 + l);
        out0[i] = v.real();
        out0[i + 1] = v.imag();
        out1[i] = -v.imag();
        out1[i + 1] = v.real();
      }
      for (index_t i = mrb; i < mr; ++i) {
        out0[i] = {};
        out1[i] = {};
      }
    }
  }
}

/// 1m packing of B for complex scalars: the kc x nc complex panel of op(B)
/// becomes a (2*kc) x nc real panel with each entry w expanded to
/// [Re w; Im w], packed into nr-column panels.
template <typename T>
void pack_b_1m(ConstMatrixView<T> b, Op opb, index_t l0, index_t j0,
               index_t kcb, index_t ncb,
               typename GemmMicroShape<T>::real_type* HCHAM_RESTRICT dst) {
  constexpr index_t nr = GemmMicroShape<T>::nr_real;
  const index_t kcb_r = 2 * kcb;
  for (index_t q = 0; q < ncb; q += nr) {
    const index_t nrb = std::min(nr, ncb - q);
    auto* HCHAM_RESTRICT panel = dst + q * kcb_r;
    for (index_t l = 0; l < kcb; ++l) {
      auto* HCHAM_RESTRICT out0 = panel + (2 * l) * nr;
      auto* HCHAM_RESTRICT out1 = panel + (2 * l + 1) * nr;
      for (index_t j = 0; j < nrb; ++j) {
        const T w = op_a_at(b, opb, l0 + l, j0 + q + j);
        out0[j] = w.real();
        out1[j] = w.imag();
      }
      for (index_t j = nrb; j < nr; ++j) {
        out0[j] = {};
        out1[j] = {};
      }
    }
  }
}

/// C *= beta, with the beta == 0 case overwriting (so NaNs in C are
/// ignored, as BLAS specifies) and beta == 1 a no-op.
template <typename T>
void scale_inplace(MatrixView<T> c, T beta) {
  if (beta == T{1}) return;
  if (beta == T{}) {
    c.set_zero();
    return;
  }
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i) c(i, j) *= beta;
}

}  // namespace detail

/// Decide whether a product of logical size m x n x k should take the
/// blocked path. Tiny or extremely skinny products stay on the reference
/// loops, whose per-call overhead is near zero.
template <typename T>
inline bool gemm_prefers_blocked(index_t m, index_t n, index_t k) {
  constexpr index_t mr = GemmMicroShape<T>::mr;
  constexpr index_t nr = GemmMicroShape<T>::nr;
  if (m < mr || n < nr || k < 8) return false;
  const double flops = (is_complex_v<T> ? 8.0 : 2.0) * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  return flops >= static_cast<double>(kGemmMinFlops);
}

namespace detail {

/// Real-scalar driver: the three cache loops around pack_a/pack_b and the
/// register-tile microkernel. alpha is folded into the packed A panels;
/// beta has already been applied to C by the caller.
template <typename T>
void gemm_blocked_real(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, MatrixView<T> c) {
  constexpr index_t mr = GemmMicroShape<T>::mr;
  constexpr index_t nr = GemmMicroShape<T>::nr;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();

  // Round the A-block height to whole register tiles.
  constexpr index_t mc = std::max(mr, kGemmMc - kGemmMc % mr);
  constexpr index_t kc = kGemmKc;
  constexpr index_t nc = std::max(nr, kGemmNc - kGemmNc % nr);

  WorkspaceScope ws;
  T* const pack_a_buf =
      ws.alloc<T>(ceil_div(std::min(mc, m), mr) * mr * std::min(kc, k));
  T* const pack_b_buf =
      ws.alloc<T>(ceil_div(std::min(nc, n), nr) * nr * std::min(kc, k));

  for (index_t jc = 0; jc < n; jc += nc) {
    const index_t ncb = std::min(nc, n - jc);
    for (index_t pc = 0; pc < k; pc += kc) {
      const index_t kcb = std::min(kc, k - pc);
      pack_b(b, opb, pc, jc, kcb, ncb, pack_b_buf);
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mcb = std::min(mc, m - ic);
        pack_a(a, opa, alpha, ic, pc, mcb, kcb, pack_a_buf);
        for (index_t q = 0; q < ncb; q += nr) {
          const index_t nrb = std::min(nr, ncb - q);
          const T* bpanel = pack_b_buf + q * kcb;
          for (index_t p = 0; p < mcb; p += mr) {
            const index_t mrb = std::min(mr, mcb - p);
            const T* apanel = pack_a_buf + p * kcb;
            if (mrb == mr && nrb == nr) {
              microkernel<T, mr, nr>(kcb, apanel, bpanel, &c(ic + p, jc + q),
                                     c.ld());
            } else {
              // Edge tile: accumulate into a full mr x nr scratch, then add
              // the live part into C.
              T tmp[mr * nr] = {};
              microkernel<T, mr, nr>(kcb, apanel, bpanel, tmp, mr);
              for (index_t j = 0; j < nrb; ++j)
                for (index_t i = 0; i < mrb; ++i)
                  c(ic + p + i, jc + q + j) += tmp[i + j * mr];
            }
          }
        }
      }
    }
  }
}

/// Complex driver (the 1m method): the complex product is expressed as a
/// real product of twice the height and depth via the 2x2 expansion done in
/// pack_a_1m/pack_b_1m, so it reuses the real microkernel at real-GEMM
/// rates. C is addressed through its interleaved real view (ld doubles).
template <typename T>
void gemm_blocked_complex(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                          ConstMatrixView<T> b, MatrixView<T> c) {
  using R = typename GemmMicroShape<T>::real_type;
  constexpr index_t mr = GemmMicroShape<T>::mr_real;
  constexpr index_t nr = GemmMicroShape<T>::nr_real;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();

  // Block sizes in real elements; complex steps are half (mr is even, so a
  // whole number of complex rows fits every register tile).
  constexpr index_t mc_c = std::max(mr, kGemmMc - kGemmMc % mr) / 2;
  constexpr index_t kc_c = kGemmKc / 2;
  constexpr index_t nc = std::max(nr, kGemmNc - kGemmNc % nr);

  R* const cr = reinterpret_cast<R*>(c.data());
  const index_t ldc_r = 2 * c.ld();

  WorkspaceScope ws;
  R* const pack_a_buf = ws.alloc<R>(ceil_div(std::min(2 * mc_c, 2 * m), mr) *
                                    mr * 2 * std::min(kc_c, k));
  R* const pack_b_buf = ws.alloc<R>(ceil_div(std::min(nc, n), nr) * nr * 2 *
                                    std::min(kc_c, k));

  for (index_t jc = 0; jc < n; jc += nc) {
    const index_t ncb = std::min(nc, n - jc);
    for (index_t pc = 0; pc < k; pc += kc_c) {
      const index_t kcb = std::min(kc_c, k - pc);
      const index_t kcb_r = 2 * kcb;
      pack_b_1m(b, opb, pc, jc, kcb, ncb, pack_b_buf);
      for (index_t ic = 0; ic < m; ic += mc_c) {
        const index_t mcb = std::min(mc_c, m - ic);
        const index_t mcb_r = 2 * mcb;
        pack_a_1m(a, opa, alpha, ic, pc, mcb, kcb, pack_a_buf);
        for (index_t q = 0; q < ncb; q += nr) {
          const index_t nrb = std::min(nr, ncb - q);
          const R* bpanel = pack_b_buf + q * kcb_r;
          for (index_t p = 0; p < mcb_r; p += mr) {
            const index_t mrb = std::min(mr, mcb_r - p);
            const R* apanel = pack_a_buf + p * kcb_r;
            R* ctile = cr + (2 * ic + p) + (jc + q) * ldc_r;
            if (mrb == mr && nrb == nr) {
              microkernel<R, mr, nr>(kcb_r, apanel, bpanel, ctile, ldc_r);
            } else {
              R tmp[mr * nr] = {};
              microkernel<R, mr, nr>(kcb_r, apanel, bpanel, tmp, mr);
              for (index_t j = 0; j < nrb; ++j)
                for (index_t i = 0; i < mrb; ++i)
                  ctile[i + j * ldc_r] += tmp[i + j * mr];
            }
          }
        }
      }
    }
  }
}

}  // namespace detail

/// Blocked GEMM: C = alpha * op(A) * op(B) + beta * C. Semantics identical
/// to `gemm` (gemm.hpp); correct for every shape, but meant for products
/// where gemm_prefers_blocked() holds.
template <typename T>
void gemm_blocked(Op opa, Op opb, T alpha,
                  std::type_identity_t<ConstMatrixView<T>> a,
                  std::type_identity_t<ConstMatrixView<T>> b, T beta,
                  MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();
  HCHAM_CHECK(((opa == Op::NoTrans) ? a.rows() : a.cols()) == m);
  HCHAM_CHECK(((opb == Op::NoTrans) ? b.rows() : b.cols()) == k);
  HCHAM_CHECK(((opb == Op::NoTrans) ? b.cols() : b.rows()) == n);

  detail::scale_inplace(c, beta);
  if (alpha == T{} || m == 0 || n == 0 || k == 0) return;

  if constexpr (is_complex_v<T>) {
    detail::gemm_blocked_complex<T>(opa, opb, alpha, a, b, c);
  } else {
    detail::gemm_blocked_real<T>(opa, opb, alpha, a, b, c);
  }
}

}  // namespace hcham::la
