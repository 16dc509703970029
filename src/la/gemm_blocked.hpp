// Register-tiled GEMM engine: C = alpha * op(A) * op(B) + beta * C.
//
// One microkernel computes an mr x nr' tile of C (nr' <= nr, one
// instantiation per width; a half-height mr/2 variant serves slivers no
// taller than that) from an mr-row sliver of op(A) -- column l at
// a + l*lda -- and nr' broadcasts per l from op(B), element (l, j) at
// b[l*rsb + j*csb]. It writes C(i, j) = beta*C(i, j) + alpha*acc(i, j) for
// the live rows only, at c[i*rsc + j*csc], so neither a narrow edge nor a
// transposed C costs a scratch tile. Complex scalars run through the same
// loop on interleaved (re, im) lanes: each column of B feeds two broadcasts
// (Re b, Im b) into two accumulator sets that are recombined at the store;
// a conjugated B only flips the signs of that recombination. The loop is
// written with GCC/Clang vector types, two vector registers of rows per
// column, so every accumulator stays in a register; mr/nr follow the
// vector width of the instruction set (below).
//
// Two drivers feed the kernel, chosen by shape alone (gemm_prefers_packed):
//  * gemm_blocked -- the Goto/BLIS packed driver. Three cache loops
//    (nc -> kc -> mc) keep a kc x nc panel of op(B) in L3 and an mc x kc
//    block of op(A) in L2, both repacked into contiguous zero-padded panels
//    (A: element (i, l) of sliver p at [p*kc + l*mr + i]; B: element (l, j)
//    of panel q at [q*kc + l*nr + j]). Used where packing amortizes.
//  * gemm_small -- the small-shape driver (BLIS "sup" style). A NoTrans A
//    is read in place as mr-row slivers at stride lda and B is always read
//    in place; only a Trans/ConjTrans A (or an edge sliver shorter than its
//    tile) is packed, one k x mr sliver at a time, on the stack or, past
//    k = kGemmSmallMax, into the workspace arena. When m < mr and n > m it
//    computes C^T = op(B)^T op(A)^T instead, so rank-thin products fill
//    whole register tiles.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/config.hpp"
#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"

/// Hot kernel entry points start on a cache line, so their throughput does
/// not ride on where the linker happens to place them.
#define HCHAM_KERNEL_ENTRY __attribute__((noinline, aligned(64)))

namespace hcham::la {

// ---------------------------------------------------------------------------
// Tuning: cache blocking, driver crossover and the QR panel width.
// ---------------------------------------------------------------------------

/// Cache blocking of the packed driver for a ~48 KiB L1 / 2 MiB L2 core: an
/// mc x kc block of op(A) stays in L2, a kc x nc panel of op(B) in L3.
inline constexpr index_t kGemmMc = 128;
inline constexpr index_t kGemmKc = 384;
inline constexpr index_t kGemmNc = 4096;
/// Crossover between the drivers: products with m, n and k all at most
/// this size take the small-shape driver, as do products narrower than a
/// register tile in m or n (which packing would pad).
inline constexpr index_t kGemmSmallMax = 128;
/// Reflectors per compact-WY block of the Householder QR (la::geqrt).
inline constexpr index_t kQrNb = 32;
/// Widest panel the recursive Householder QR factors with the unblocked
/// loop.
inline constexpr index_t kQrBase = 4;

namespace detail {
#if defined(__AVX512F__)
inline constexpr int kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVecBytes = 32;
#else
inline constexpr int kVecBytes = 16;
#endif
}  // namespace detail

/// Register-tile shape for scalar type T, in units of T. The tile holds two
/// vector registers of real lanes per column (mr_real) by enough columns
/// (nr_real broadcasts per l) to hide the FMA latency without spilling the
/// accumulators. A complex column takes two broadcasts and a complex row
/// two lanes, so complex tiles are half as tall and half as wide.
template <typename T>
struct GemmMicroShape {
  using real_type = real_t<T>;
  static constexpr index_t mr_real =
      std::max<index_t>(4, 2 * detail::kVecBytes /
                               static_cast<index_t>(sizeof(real_type)));
  static constexpr index_t nr_real = detail::kVecBytes >= 64 ? 8 : 6;
  static constexpr index_t mr = is_complex_v<T> ? mr_real / 2 : mr_real;
  static constexpr index_t nr = is_complex_v<T> ? nr_real / 2 : nr_real;
};

/// Whether an m x n x k product takes the packed driver (else gemm_small).
template <typename T>
constexpr bool gemm_prefers_packed(index_t m, index_t n, index_t k) {
  if (m < GemmMicroShape<T>::mr || n < GemmMicroShape<T>::nr) return false;
  return std::max({m, n, k}) > kGemmSmallMax;
}

namespace detail {

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

/// A strided operand: element (i, j) is conj?(p[i*rs + j*cs]).
template <typename T>
struct Strided {
  const T* p;
  index_t rs, cs;
  bool conj;

  static Strided of(ConstMatrixView<T> v, Op op) {
    if (op == Op::NoTrans) return {v.data(), 1, v.ld(), false};
    return {v.data(), v.ld(), 1, is_complex_v<T> && op == Op::ConjTrans};
  }
  Strided transposed() const { return {p, cs, rs, conj}; }
  T at(index_t i, index_t j) const {
    const T v = p[i * rs + j * cs];
    return conj ? conj_if(v) : v;
  }
};

/// Everything one microkernel call reads: see the file comment.
template <typename T>
struct MicroTile {
  index_t k;
  const T* a;
  index_t lda;
  const T* b;
  index_t rsb, csb;
  bool conjb;
  T* c;
  index_t rsc, csc;
  index_t m_live;
  T alpha, beta;
};

/// The kernel on a tile MV vector registers tall (MV = 2: mr rows; MV = 1:
/// mr / 2, for slivers no taller than that) and NR columns wide.
template <typename T, int NR, int MV>
HCHAM_KERNEL_ENTRY void microkernel(const MicroTile<T>& t) {
  using R = real_t<T>;
  typedef R V __attribute__((vector_size(kVecBytes)));
  constexpr int W = is_complex_v<T> ? 2 : 1;  // real lanes per T
  constexpr int VL = kVecBytes / static_cast<int>(sizeof(R));
  constexpr int NB = NR * W;  // broadcasts per l
  const R* HCHAM_RESTRICT a = reinterpret_cast<const R*>(t.a);
  const R* HCHAM_RESTRICT b = reinterpret_cast<const R*>(t.b);
  const index_t lda = W * t.lda, rsb = W * t.rsb, csb = W * t.csb;
  V acc[NB][MV];
  for (int jw = 0; jw < NB; ++jw)
    for (int v = 0; v < MV; ++v) acc[jw][v] = V{};
  for (index_t l = 0; l < t.k; ++l) {
    V av[MV];
    for (int v = 0; v < MV; ++v)
      __builtin_memcpy(&av[v], a + v * VL, sizeof(V));
#pragma GCC unroll 16
    for (int jw = 0; jw < NB; ++jw) {
      const R bv = b[(jw / W) * csb + jw % W];
      for (int v = 0; v < MV; ++v) acc[jw][v] += av[v] * bv;
    }
    a += lda;
    b += rsb;
  }
  // acc[W*j] holds lane w of A(i) times Re(b) at lane W*i + w, and
  // acc[W*j + 1] the same with Im(b); C(i, j) recombines them (conj(b)
  // flips Im(b)).
  constexpr int MRT = MV * VL / W;
  R lanes[NB][MV * VL];
  __builtin_memcpy(lanes, acc, sizeof(lanes));
  T tile[NR][MRT];
  const R sb = t.conjb ? R{-1} : R{1};
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MRT; ++i) {
      if constexpr (W == 2) {
        const R* re = lanes[2 * j];
        const R* im = lanes[2 * j + 1];
        tile[j][i] = T(re[2 * i] - sb * im[2 * i + 1],
                       re[2 * i + 1] + sb * im[2 * i]);
      } else {
        tile[j][i] = lanes[j][i];
      }
    }
  const auto store = [&](auto rsc) {
    for (int j = 0; j < NR; ++j) {
      T* HCHAM_RESTRICT cj = t.c + j * t.csc;
      for (index_t i = 0; i < t.m_live; ++i) {
        T& cij = cj[i * rsc];
        cij = t.beta == T{} ? t.alpha * tile[j][i]
                            : t.beta * cij + t.alpha * tile[j][i];
      }
    }
  };
  if (t.rsc == 1) {
    store(std::integral_constant<index_t, 1>{});
  } else {
    store(t.rsc);
  }
}

template <typename T, int MV, std::size_t... J>
constexpr auto microkernel_table(std::index_sequence<J...>) {
  return std::array<void (*)(const MicroTile<T>&), sizeof...(J)>{
      &microkernel<T, static_cast<int>(J) + 1, MV>...};
}

/// Run the microkernel on a tile n_live <= nr columns wide whose A sliver
/// is `height` (mr or mr / 2) rows tall.
template <typename T>
inline void run_tile(const MicroTile<T>& t, index_t n_live, index_t height) {
  using Cols = std::make_index_sequence<static_cast<std::size_t>(
      GemmMicroShape<T>::nr)>;
  static constexpr auto kFull = microkernel_table<T, 2>(Cols{});
  static constexpr auto kHalf = microkernel_table<T, 1>(Cols{});
  const auto j = static_cast<std::size_t>(n_live - 1);
  (height == GemmMicroShape<T>::mr ? kFull[j] : kHalf[j])(t);
}

/// Shuffle mask of one butterfly stage of an in-register transpose of
/// NE x NE elements, W real lanes each: rows i and i + h swap their
/// off-diagonal h-element blocks. `lo` makes the new row i, else row i + h.
template <typename I, int NE, int W, int h, bool lo>
constexpr auto transpose_mask() {
  constexpr int VL = NE * W;
  std::array<I, VL> m{};
  for (int x = 0; x < VL; ++x) {
    const int e = x / W;
    const int w = x % W;
    if constexpr (lo) {
      m[x] = (e & h) ? VL + (e - h) * W + w : x;
    } else {
      m[x] = (e & h) ? VL + x : (e + h) * W + w;
    }
  }
  typedef I M __attribute__((vector_size(VL * sizeof(I))));
  return [&]<std::size_t... X>(std::index_sequence<X...>) {
    return M{m[X]...};
  }(std::make_index_sequence<VL>{});
}

/// Transpose the NE x NE block of elements held one row per vector in v
/// (log2(NE) butterfly stages of constant shuffles).
template <typename T, int NE, int h = NE / 2, typename V>
inline void transpose_rows(V* v) {
  if constexpr (h >= 1) {
    using R = real_t<T>;
    using I = std::conditional_t<sizeof(R) == 8, long long, int>;
    constexpr int W = is_complex_v<T> ? 2 : 1;
    constexpr auto lo = transpose_mask<I, NE, W, h, true>();
    constexpr auto hi = transpose_mask<I, NE, W, h, false>();
    for (int i = 0; i < NE; ++i) {
      if (i & h) continue;
      const V a = v[i];
      const V b = v[i + h];
      v[i] = __builtin_shuffle(a, b, lo);
      v[i + h] = __builtin_shuffle(a, b, hi);
    }
    transpose_rows<T, NE, h / 2>(v);
  }
}

/// Copy rows i0 .. i0+rows of op(A)(:, l0 .. l0+kb) into a sliver of
/// H >= rows rows at dst[l*H + i], zero-padded below the live rows. H is a
/// constant so the copies vectorize whatever `rows` is.
template <index_t H, typename T>
void pack_sliver(const Strided<T>& a, index_t i0, index_t rows, index_t l0,
                 index_t kb, T* HCHAM_RESTRICT dst) {
  if (a.rs == 1 && !a.conj) {  // columns of the sliver are contiguous
    for (index_t l = 0; l < kb; ++l) {
      const T* HCHAM_RESTRICT col = a.p + i0 + (l0 + l) * a.cs;
      T* HCHAM_RESTRICT out = dst + l * H;
      for (index_t i = 0; i < H; ++i) out[i] = i < rows ? col[i] : T{};
    }
    return;
  }
  // Rows of the sliver run along l. With unit stride along l, NE x NE
  // blocks (one vector register per row) are loaded row-wise, transposed
  // in registers and stored as whole column segments of dst.
  using R = real_t<T>;
  typedef R V __attribute__((vector_size(kVecBytes)));
  constexpr int W = is_complex_v<T> ? 2 : 1;
  constexpr int NE = kVecBytes / static_cast<int>(sizeof(T));
  index_t l = 0;
  if constexpr (NE > 1 && H % NE == 0) {
    if (a.cs == 1) {
      V sign;  // flips the imaginary lanes of a conjugated operand
      for (int x = 0; x < NE * W; ++x)
        sign[x] = a.conj && x % W == 1 ? R{-1} : R{1};
      for (; l + NE <= kb; l += NE) {
        for (index_t g = 0; g < H; g += NE) {
          V v[NE];
          for (int i = 0; i < NE; ++i) {
            if (g + i < rows) {
              __builtin_memcpy(
                  &v[i],
                  reinterpret_cast<const R*>(a.p + (i0 + g + i) * a.rs + l0 + l),
                  sizeof(V));
              if (a.conj) v[i] *= sign;
            } else {
              v[i] = V{};
            }
          }
          transpose_rows<T, NE>(v);
          for (int e = 0; e < NE; ++e)
            __builtin_memcpy(reinterpret_cast<R*>(dst + (l + e) * H + g),
                             &v[e], sizeof(V));
        }
      }
    }
  }
  for (; l < kb; ++l)
    for (index_t i = 0; i < H; ++i)
      dst[l * H + i] = i < rows ? a.at(i0 + i, l0 + l) : T{};
}

/// Copy op(B)(l0 .. l0+kb, j0 .. j0+cols) into nr-column panels at
/// dst[q*kb + l*nr + j], zero-padded to a full nr.
template <typename T>
void pack_b(const Strided<T>& b, index_t l0, index_t kb, index_t j0,
            index_t cols, T* HCHAM_RESTRICT dst) {
  constexpr index_t nr = GemmMicroShape<T>::nr;
  for (index_t q = 0; q < cols; q += nr) {
    const index_t nb = std::min(nr, cols - q);
    T* HCHAM_RESTRICT panel = dst + q * kb;
    for (index_t l = 0; l < kb; ++l) {
      T* HCHAM_RESTRICT out = panel + l * nr;
      for (index_t j = 0; j < nb; ++j) out[j] = b.at(l0 + l, j0 + q + j);
      for (index_t j = nb; j < nr; ++j) out[j] = T{};
    }
  }
}

/// Checks the shapes and handles the cases no kernel runs for. Returns
/// false when C is already final.
template <typename T>
bool gemm_prologue(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                   ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();
  HCHAM_CHECK(((opa == Op::NoTrans) ? a.rows() : a.cols()) == c.rows());
  HCHAM_CHECK(((opb == Op::NoTrans) ? b.rows() : b.cols()) == k);
  HCHAM_CHECK(((opb == Op::NoTrans) ? b.cols() : b.rows()) == c.cols());
  if (c.rows() == 0 || c.cols() == 0) return false;
  if (alpha == T{} || k == 0) {
    scale_inplace(c, beta);
    return false;
  }
  return true;
}

}  // namespace detail

/// Small-shape GEMM: C = alpha * op(A) * op(B) + beta * C without packing
/// B, and A packed only when it is not a plain NoTrans view (see the file
/// comment). Correct for every shape; `gemm` sends it the products
/// gemm_prefers_packed() rejects.
template <typename T>
HCHAM_KERNEL_ENTRY void gemm_small(Op opa, Op opb, T alpha,
                                   std::type_identity_t<ConstMatrixView<T>> a,
                                   std::type_identity_t<ConstMatrixView<T>> b,
                                   T beta, MatrixView<T> c) {
  if (!detail::gemm_prologue(opa, opb, alpha, a, b, beta, c)) return;
  constexpr index_t mr = GemmMicroShape<T>::mr;
  constexpr index_t nr = GemmMicroShape<T>::nr;
  auto sa = detail::Strided<T>::of(a, opa);
  auto sb = detail::Strided<T>::of(b, opb);
  index_t m = c.rows(), n = c.cols(), rsc = 1, csc = c.ld();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();
  if (m < mr && n > m) {  // C^T = op(B)^T op(A)^T fills whole tiles
    std::swap(sa, sb);
    sa = sa.transposed();
    sb = sb.transposed();
    std::swap(m, n);
    std::swap(rsc, csc);
  }
  const bool in_place = sa.rs == 1 && !sa.conj;
  // A sliver up to kGemmSmallMax deep lives on the stack (16 KiB): the
  // solves call this from threads that hold no arena, where the arena
  // falls back to a heap allocation per call.
  alignas(64) unsigned char local[mr * kGemmSmallMax * sizeof(T)];
  WorkspaceScope ws;
  T* sliver = nullptr;
  for (index_t i0 = 0; i0 < m; i0 += mr) {
    const index_t m_live = std::min(mr, m - i0);
    // A short edge (or a rank-thin m) runs on half-height tiles.
    const index_t height = m_live > mr / 2 ? mr : mr / 2;
    detail::MicroTile<T> t{k, sa.p + i0, sa.cs, nullptr, sb.rs, sb.cs,
                           sb.conj, nullptr, rsc, csc, m_live, alpha, beta};
    if (!in_place || m_live < height) {
      if (sliver == nullptr)
        sliver = k <= kGemmSmallMax ? reinterpret_cast<T*>(local)
                                    : ws.alloc<T>(mr * k);
      if (height == mr) {
        detail::pack_sliver<mr>(sa, i0, m_live, 0, k, sliver);
      } else {
        detail::pack_sliver<mr / 2>(sa, i0, m_live, 0, k, sliver);
      }
      t.a = sliver;
      t.lda = height;
    }
    for (index_t j0 = 0; j0 < n; j0 += nr) {
      t.b = sb.p + j0 * sb.cs;
      t.c = c.data() + i0 * rsc + j0 * csc;
      detail::run_tile(t, std::min(nr, n - j0), height);
    }
  }
}

/// Packed GEMM: C = alpha * op(A) * op(B) + beta * C through the Goto/BLIS
/// cache loops. Correct for every shape; `gemm` sends it the products
/// gemm_prefers_packed() accepts.
template <typename T>
HCHAM_KERNEL_ENTRY void gemm_blocked(
    Op opa, Op opb, T alpha, std::type_identity_t<ConstMatrixView<T>> a,
    std::type_identity_t<ConstMatrixView<T>> b, T beta, MatrixView<T> c) {
  if (!detail::gemm_prologue(opa, opb, alpha, a, b, beta, c)) return;
  constexpr index_t mr = GemmMicroShape<T>::mr;
  constexpr index_t nr = GemmMicroShape<T>::nr;
  // Real-lane block sizes; complex blocks hold half as many elements.
  constexpr index_t w = is_complex_v<T> ? 2 : 1;
  constexpr index_t mc = std::max(mr, kGemmMc / w - kGemmMc / w % mr);
  constexpr index_t kc = kGemmKc / w;
  constexpr index_t nc = std::max(nr, kGemmNc - kGemmNc % nr);
  const auto sa = detail::Strided<T>::of(a, opa);
  const auto sb = detail::Strided<T>::of(b, opb);
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (opa == Op::NoTrans) ? a.cols() : a.rows();

  WorkspaceScope ws;
  T* const pack_a = ws.alloc<T>(ceil_div(std::min(mc, m), mr) * mr *
                                std::min(kc, k));
  T* const pack_b = ws.alloc<T>(ceil_div(std::min(nc, n), nr) * nr *
                                std::min(kc, k));
  for (index_t jc = 0; jc < n; jc += nc) {
    const index_t ncb = std::min(nc, n - jc);
    for (index_t pc = 0; pc < k; pc += kc) {
      const index_t kcb = std::min(kc, k - pc);
      detail::pack_b(sb, pc, kcb, jc, ncb, pack_b);
      // Later k blocks accumulate onto the first one's result.
      const T beta_pc = pc == 0 ? beta : T{1};
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mcb = std::min(mc, m - ic);
        for (index_t p = 0; p < mcb; p += mr)
          detail::pack_sliver<mr>(sa, ic + p, std::min(mr, mcb - p), pc, kcb,
                                  pack_a + p * kcb);
        for (index_t q = 0; q < ncb; q += nr) {
          for (index_t p = 0; p < mcb; p += mr) {
            const detail::MicroTile<T> t{
                kcb,     pack_a + p * kcb,
                mr,      pack_b + q * kcb,
                nr,      1,
                false,   &c(ic + p, jc + q),
                1,       c.ld(),
                std::min(mr, mcb - p), alpha, beta_pc};
            detail::run_tile(t, std::min(nr, ncb - q), mr);
          }
        }
      }
    }
  }
}

}  // namespace hcham::la
