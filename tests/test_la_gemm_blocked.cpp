// Kernel-oracle suite for the register-tiled GEMM engine
// (la/gemm_blocked.hpp): both drivers -- the packed gemm_blocked and the
// small-shape gemm_small -- are checked entry-by-entry against the
// straightforward reference kernel across all nine op(A)/op(B)
// combinations, edge shapes straddling the microkernel tile (1, mr-1, mr,
// mr+1, ...), alpha/beta in {0, 1, -1, 0.5}, and strided sub-views.
// Tolerances scale with the reduction length k. Runs under the "la" CTest
// label so the sanitizer CI jobs pick it up.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/gemm_blocked.hpp"
#include "la/matrix.hpp"
#include "la/view.hpp"
#include "test_utils.hpp"

namespace hcham::la {
namespace {

using ::hcham::testing::reference_gemm;

constexpr Op kOps[3] = {Op::NoTrans, Op::Trans, Op::ConjTrans};

const char* op_name(Op op) {
  switch (op) {
    case Op::NoTrans: return "N";
    case Op::Trans: return "T";
    case Op::ConjTrans: return "C";
  }
  return "?";
}

template <typename T>
void fill_random(Rng& rng, MatrixView<T> a) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) a(i, j) = rng.scalar<T>();
}

/// op-dependent storage shape for a factor that contributes (rows x cols)
/// to the product.
inline std::pair<index_t, index_t> storage_shape(Op op, index_t rows,
                                                 index_t cols) {
  return op == Op::NoTrans ? std::pair{rows, cols} : std::pair{cols, rows};
}

/// Max |difference| between the blocked result and the reference, scaled by
/// the expected rounding envelope of a length-k reduction.
template <typename T>
double scaled_error(ConstMatrixView<T> got, ConstMatrixView<T> want,
                    index_t k) {
  using R = real_t<T>;
  const double eps = static_cast<double>(std::numeric_limits<R>::epsilon());
  const double envelope = eps * static_cast<double>(std::max<index_t>(k, 1));
  double worst = 0.0;
  for (index_t j = 0; j < got.cols(); ++j)
    for (index_t i = 0; i < got.rows(); ++i) {
      const double d = static_cast<double>(abs_val(got(i, j) - want(i, j)));
      worst = std::max(worst, d / envelope);
    }
  return worst;  // units of k*eps; anything < ~50 is a rounding difference
}

/// One oracle comparison: C_blocked vs C_reference for the given config.
template <typename T>
void check_case(Rng& rng, Op opa, Op opb, index_t m, index_t n, index_t k,
                T alpha, T beta) {
  const auto [am, an] = storage_shape(opa, m, k);
  const auto [bm, bn] = storage_shape(opb, k, n);
  Matrix<T> a(am, an), b(bm, bn), c0(m, n);
  fill_random(rng, a.view());
  fill_random(rng, b.view());
  fill_random(rng, c0.view());

  Matrix<T> got = c0;
  Matrix<T> want = c0;
  gemm_blocked<T>(opa, opb, alpha, a.cview(), b.cview(), beta, got.view());
  reference_gemm<T>(opa, opb, alpha, a.cview(), b.cview(), beta, want.view());

  const double err = scaled_error<T>(got.cview(), want.cview(), k);
  EXPECT_LT(err, 50.0) << "op(A)=" << op_name(opa) << " op(B)=" << op_name(opb)
                       << " m=" << m << " n=" << n << " k=" << k
                       << " alpha=" << abs_val(alpha)
                       << " beta=" << abs_val(beta) << " (error in k*eps units)";
}

template <typename T>
class GemmBlockedOracle : public ::testing::Test {};

using Scalars =
    ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(GemmBlockedOracle, Scalars);

/// All 9 op combos on the full cross product of microkernel-straddling edge
/// sizes {1, mr-1, mr, mr+1}, with alpha/beta cycling through
/// {0, 1, -1, 0.5} x {0, 1, -1, 0.5}.
TYPED_TEST(GemmBlockedOracle, OpCombosMicroTileEdges) {
  using T = TypeParam;
  constexpr index_t mr = GemmMicroShape<T>::mr;
  const index_t sizes[] = {1, mr - 1, mr, mr + 1};
  const T coefs[] = {T{0}, T{1}, T{-1}, T{0.5}};
  Rng rng(2024);
  int tick = 0;
  for (Op opa : kOps)
    for (Op opb : kOps)
      for (index_t m : sizes)
        for (index_t n : sizes)
          for (index_t k : sizes) {
            const T alpha = coefs[tick % 4];
            const T beta = coefs[(tick / 4) % 4];
            ++tick;
            check_case<T>(rng, opa, opb, m, n, k, alpha, beta);
          }
}

/// All 9 op combos on cache-blocking-relevant shapes (crossing kc/mc
/// boundaries, extreme aspect ratios) with nonzero alpha/beta.
TYPED_TEST(GemmBlockedOracle, OpCombosLargeAndSkinny) {
  using T = TypeParam;
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{64, 64, 64},  {257, 257, 257}, {257, 1, 64},
                          {1, 257, 64},  {64, 257, 257},  {257, 64, 1},
                          {129, 65, 385}};
  const T coefs[] = {T{1}, T{-1}, T{0.5}};
  Rng rng(4096);
  int tick = 0;
  for (Op opa : kOps)
    for (Op opb : kOps)
      for (const Shape& s : shapes) {
        const T alpha = coefs[tick % 3];
        const T beta = coefs[(tick / 3) % 3];
        ++tick;
        check_case<T>(rng, opa, opb, s.m, s.n, s.k, alpha, beta);
      }
}

/// alpha/beta full cross product {0, 1, -1, 0.5}^2 on a mid-size problem.
TYPED_TEST(GemmBlockedOracle, AlphaBetaCross) {
  using T = TypeParam;
  const T coefs[] = {T{0}, T{1}, T{-1}, T{0.5}};
  Rng rng(7);
  for (T alpha : coefs)
    for (T beta : coefs)
      check_case<T>(rng, Op::NoTrans, Op::NoTrans, 70, 53, 91, alpha, beta);
}

/// beta = 0 must overwrite C, not scale it: NaN garbage in C must vanish.
TYPED_TEST(GemmBlockedOracle, BetaZeroOverwritesNan) {
  using T = TypeParam;
  using R = real_t<T>;
  Rng rng(11);
  Matrix<T> a(40, 24), b(24, 33), c(40, 33);
  fill_random(rng, a.view());
  fill_random(rng, b.view());
  const R qnan = std::numeric_limits<R>::quiet_NaN();
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i) c(i, j) = T(qnan);
  gemm_blocked<T>(Op::NoTrans, Op::NoTrans, T{1}, a.cview(), b.cview(), T{},
                  c.view());
  Matrix<T> want(40, 33);
  want.set_zero();
  reference_gemm<T>(Op::NoTrans, Op::NoTrans, T{1}, a.cview(), b.cview(), T{},
                    want.view());
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i)
      ASSERT_FALSE(std::isnan(static_cast<double>(abs_val(c(i, j)))))
          << "NaN leaked through beta=0 at (" << i << ", " << j << ")";
  EXPECT_LT(scaled_error<T>(c.cview(), want.cview(), 24), 50.0);
}

/// Strided sub-views: operands and C are interior blocks of larger parents
/// (leading dimension > rows), including row/column offsets.
TYPED_TEST(GemmBlockedOracle, StridedSubViews) {
  using T = TypeParam;
  Rng rng(31);
  const index_t m = 77, n = 45, k = 101;
  for (Op opa : kOps)
    for (Op opb : kOps) {
      const auto [am, an] = storage_shape(opa, m, k);
      const auto [bm, bn] = storage_shape(opb, k, n);
      Matrix<T> pa(am + 13, an + 5), pb(bm + 7, bn + 9), pc(m + 11, n + 3);
      fill_random(rng, pa.view());
      fill_random(rng, pb.view());
      fill_random(rng, pc.view());
      Matrix<T> pc2 = pc;
      ConstMatrixView<T> a = std::as_const(pa).block(13, 2, am, an);
      ConstMatrixView<T> b = std::as_const(pb).block(3, 9, bm, bn);
      gemm_blocked<T>(opa, opb, T{0.5}, a, b, T{-1},
                      pc.block(11, 1, m, n));
      reference_gemm<T>(opa, opb, T{0.5}, a, b, T{-1},
                        pc2.block(11, 1, m, n));
      // The parent outside the written block must be untouched.
      for (index_t j = 0; j < pc.cols(); ++j)
        for (index_t i = 0; i < pc.rows(); ++i) {
          const bool inside = i >= 11 && i < 11 + m && j >= 1 && j < 1 + n;
          if (!inside) {
            ASSERT_EQ(pc(i, j), pc2(i, j))
                << "write outside the C block at (" << i << ", " << j << ")";
          }
        }
      EXPECT_LT(scaled_error<T>(std::as_const(pc).block(11, 1, m, n),
                                std::as_const(pc2).block(11, 1, m, n), k),
                50.0)
          << "op(A)=" << op_name(opa) << " op(B)=" << op_name(opb);
    }
}

/// The small-shape driver on every (m, n) pair of its edge sizes, all 9 op
/// combinations, k cycling through {1, 7, 8, 10, 64, 129} and alpha/beta
/// through {0, 1, -1, 0.5}^2. Operands and C are strided views inside
/// padded parents; with beta = 0 C starts as NaN, which must not survive.
TYPED_TEST(GemmBlockedOracle, SmallDriverEdgeShapes) {
  using T = TypeParam;
  using R = real_t<T>;
  constexpr index_t mr = GemmMicroShape<T>::mr;
  const index_t sizes[] = {1,  2,  3,  4,  5,  6,  7,   mr - 1, mr,  mr + 1,
                           31, 32, 33, 63, 64, 65, 127, 128,    129};
  const index_t depths[] = {1, 7, 8, 10, 64, 129};
  const T coefs[] = {T{0}, T{1}, T{-1}, T{0.5}};
  const R qnan = std::numeric_limits<R>::quiet_NaN();
  Rng rng(77);
  int tick = 0;
  for (Op opa : kOps)
    for (Op opb : kOps)
      for (index_t m : sizes)
        for (index_t n : sizes) {
          const index_t k = depths[tick % 6];
          const T alpha = coefs[(tick / 6) % 4];
          const T beta = coefs[(tick / 24) % 4];
          ++tick;
          const auto [am, an] = storage_shape(opa, m, k);
          const auto [bm, bn] = storage_shape(opb, k, n);
          Matrix<T> pa(am + 3, an), pb(bm + 2, bn), pc(m + 5, n);
          fill_random(rng, pa.view());
          fill_random(rng, pb.view());
          fill_random(rng, pc.view());
          MatrixView<T> c = pc.block(5, 0, m, n);
          if (beta == T{})
            for (index_t j = 0; j < n; ++j)
              for (index_t i = 0; i < m; ++i) c(i, j) = T(qnan);
          Matrix<T> want = Matrix<T>::from_view(std::as_const(pc).block(5, 0, m, n));
          const ConstMatrixView<T> a = std::as_const(pa).block(3, 0, am, an);
          const ConstMatrixView<T> b = std::as_const(pb).block(2, 0, bm, bn);
          if (beta == T{}) want.set_zero();
          gemm_small<T>(opa, opb, alpha, a, b, beta, c);
          reference_gemm<T>(opa, opb, alpha, a, b, beta, want.view());
          const double err = scaled_error<T>(c, want.cview(), k);
          ASSERT_LT(err, 50.0)
              << "op(A)=" << op_name(opa) << " op(B)=" << op_name(opb)
              << " m=" << m << " n=" << n << " k=" << k
              << " alpha=" << abs_val(alpha) << " beta=" << abs_val(beta);
          for (index_t j = 0; j < n; ++j)  // rows above C stay untouched
            for (index_t i = 0; i < 5; ++i)
              ASSERT_FALSE(std::isnan(static_cast<double>(abs_val(pc(i, j)))));
        }
}

/// The public gemm() must agree with the reference on either side of the
/// driver crossover and on the narrow shapes the small driver keeps.
TYPED_TEST(GemmBlockedOracle, DispatcherMatchesReference) {
  using T = TypeParam;
  constexpr index_t mr = GemmMicroShape<T>::mr;
  constexpr index_t nr = GemmMicroShape<T>::nr;
  constexpr index_t s = kGemmSmallMax;
  Rng rng(99);
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{mr - 1, 300, 64},  // rank-thin: small driver
                          {300, nr - 1, 64},  // narrow panel: small driver
                          {s, s, s},          // small driver at the crossover
                          {s + 1, s, s},      // packed driver
                          {5, 3, 2}};
  for (const Shape& sh : shapes) {
    Matrix<T> a(sh.m, sh.k), b(sh.k, sh.n), c(sh.m, sh.n), c2;
    fill_random(rng, a.view());
    fill_random(rng, b.view());
    fill_random(rng, c.view());
    c2 = c;
    gemm<T>(Op::NoTrans, Op::NoTrans, T{1}, a.cview(), b.cview(), T{0.5},
            c.view());
    reference_gemm<T>(Op::NoTrans, Op::NoTrans, T{1}, a.cview(), b.cview(),
                      T{0.5}, c2.view());
    EXPECT_LT(scaled_error<T>(c.cview(), c2.cview(), sh.k), 50.0)
        << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k;
  }
}

/// gemm_prefers_packed: products narrower than a register tile and
/// products within kGemmSmallMax in every dimension take the small driver.
TEST(GemmDispatch, CrossoverRule) {
  constexpr index_t mr = GemmMicroShape<double>::mr;
  constexpr index_t nr = GemmMicroShape<double>::nr;
  constexpr index_t s = kGemmSmallMax;
  EXPECT_FALSE(gemm_prefers_packed<double>(mr - 1, 1024, 1024));
  EXPECT_FALSE(gemm_prefers_packed<double>(1024, nr - 1, 1024));
  EXPECT_FALSE(gemm_prefers_packed<double>(s, s, s));
  EXPECT_FALSE(gemm_prefers_packed<double>(64, 32, 64));
  EXPECT_TRUE(gemm_prefers_packed<double>(s + 1, s, s));
  EXPECT_TRUE(gemm_prefers_packed<double>(s, s, s + 1));
  EXPECT_TRUE(gemm_prefers_packed<double>(256, 256, 256));
  EXPECT_TRUE(gemm_prefers_packed<double>(1024, 1024, 7));
}

}  // namespace
}  // namespace hcham::la
