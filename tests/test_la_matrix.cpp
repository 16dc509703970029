// Unit tests for the scalar traits, the dense Matrix container and views,
// and the pooled scratch arenas (la/workspace.hpp) the dense kernels
// carve from.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <type_traits>
#include <vector>

#include "la/la.hpp"
#include "la/workspace.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::ConstMatrixView;
using la::Matrix;
using la::MatrixView;
using hcham::testing::zdouble;

TEST(Matrix, DefaultIsEmpty) {
  Matrix<double> m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructionZeroInitializes) {
  Matrix<double> m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix<double> m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
}

TEST(Matrix, IdentityAndFill) {
  Matrix<double> m(3, 3);
  m.set_identity();
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), i == j ? 1.0 : 0.0);
  m.fill(7.5);
  EXPECT_EQ(m(2, 1), 7.5);
}

TEST(Matrix, RectangularIdentity) {
  Matrix<double> m(2, 4);
  m.set_identity();
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(1, 1), 1.0);
  EXPECT_EQ(m(1, 3), 0.0);
}

TEST(Matrix, RandomIsDeterministic) {
  auto a = Matrix<double>::random(5, 5, 42);
  auto b = Matrix<double>::random(5, 5, 42);
  auto c = Matrix<double>::random(5, 5, 43);
  EXPECT_EQ(hcham::testing::rel_diff<double>(a.cview(), b.cview()), 0.0);
  EXPECT_GT(hcham::testing::rel_diff<double>(a.cview(), c.cview()), 0.0);
}

TEST(Matrix, RandomEntriesInRange) {
  auto a = Matrix<zdouble>::random(10, 10, 7);
  for (index_t j = 0; j < 10; ++j) {
    for (index_t i = 0; i < 10; ++i) {
      EXPECT_LT(std::abs(a(i, j).real()), 1.0);
      EXPECT_LT(std::abs(a(i, j).imag()), 1.0);
    }
  }
}

TEST(MatrixView, BlockAddressesSubmatrix) {
  auto m = Matrix<double>::random(6, 6, 1);
  MatrixView<double> blk = m.block(1, 2, 3, 2);
  EXPECT_EQ(blk.rows(), 3);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_EQ(blk.ld(), 6);
  EXPECT_EQ(blk(0, 0), m(1, 2));
  EXPECT_EQ(blk(2, 1), m(3, 3));
  blk(1, 1) = 99.0;
  EXPECT_EQ(m(2, 3), 99.0);
}

TEST(MatrixView, NestedBlocks) {
  auto m = Matrix<double>::random(8, 8, 2);
  auto outer = m.block(2, 2, 5, 5);
  auto inner = outer.block(1, 1, 2, 2);
  EXPECT_EQ(inner(0, 0), m(3, 3));
}

// Scalar traits: the real type, conjugation and squared modulus that the
// kernels rely on, and the report tags of the four admitted precisions.
TEST(Scalar, TraitsAndPrecisionTags) {
  static_assert(std::is_same_v<real_t<double>, double>);
  static_assert(std::is_same_v<real_t<float>, float>);
  static_assert(std::is_same_v<real_t<zdouble>, double>);
  static_assert(std::is_same_v<real_t<std::complex<float>>, float>);
  static_assert(!is_complex_v<double> && is_complex_v<zdouble>);
  EXPECT_STREQ(precision_tag<double>(), "d");
  EXPECT_STREQ(precision_tag<float>(), "s");
  EXPECT_STREQ(precision_tag<zdouble>(), "z");
  EXPECT_STREQ(precision_tag<std::complex<float>>(), "c");

  const zdouble z{3.0, -4.0};
  EXPECT_EQ(conj_if(z), zdouble(3.0, 4.0));
  EXPECT_DOUBLE_EQ(abs_sq(z), 25.0);
  EXPECT_DOUBLE_EQ(abs_val(z), 5.0);
  EXPECT_DOUBLE_EQ(conj_if(-2.5), -2.5);
  EXPECT_DOUBLE_EQ(abs_sq(-2.5), 6.25);
  EXPECT_FLOAT_EQ(abs_val(-1.5f), 1.5f);
}

TEST(MatrixView, CopyBetweenStrides) {
  auto m = Matrix<double>::random(6, 6, 3);
  Matrix<double> dst(3, 3);
  la::copy<double>(m.block(2, 1, 3, 3), dst.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(dst(i, j), m(2 + i, 1 + j));
}

TEST(MatrixView, CopyShapeMismatchThrows) {
  Matrix<double> a(2, 3), b(3, 2);
  EXPECT_THROW(la::copy<double>(a.cview(), b.view()), Error);
}

TEST(Matrix, FromView) {
  auto m = Matrix<double>::random(5, 4, 9);
  auto copy = Matrix<double>::from_view(m.block(1, 1, 3, 2));
  EXPECT_EQ(copy.rows(), 3);
  EXPECT_EQ(copy.cols(), 2);
  EXPECT_EQ(copy(0, 0), m(1, 1));
}

TEST(Matrix, ResetDiscardsAndZeroes) {
  auto m = Matrix<double>::random(3, 3, 5);
  m.reset(4, 2);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m(3, 1), 0.0);
}

TEST(Norms, FrobeniusMatchesHandComputed) {
  Matrix<double> m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(la::norm_fro(m.cview()), 5.0);
}

TEST(Norms, FrobeniusComplex) {
  Matrix<zdouble> m(1, 1);
  m(0, 0) = zdouble(3, 4);
  EXPECT_DOUBLE_EQ(la::norm_fro(m.cview()), 5.0);
}

TEST(Norms, MaxNorm) {
  auto m = Matrix<double>::random(4, 4, 11);
  m(2, 3) = -8.0;
  EXPECT_DOUBLE_EQ(la::norm_max(m.cview()), 8.0);
}

TEST(Norms, ScalingAvoidsOverflow) {
  Matrix<double> m(2, 1);
  m(0, 0) = 1e200;
  m(1, 0) = 1e200;
  EXPECT_NEAR(la::norm_fro(m.cview()) / (std::sqrt(2.0) * 1e200), 1.0, 1e-14);
}

TEST(Norms, DotcConjugatesFirstArgument) {
  zdouble x[2] = {zdouble(0, 1), zdouble(1, 0)};
  zdouble y[2] = {zdouble(0, 1), zdouble(2, 0)};
  const zdouble d = la::dotc<zdouble>(2, x, y);
  EXPECT_DOUBLE_EQ(d.real(), 3.0);
  EXPECT_DOUBLE_EQ(d.imag(), 0.0);
}

/// The 2-norm of x by summing squares in long double, whose range holds
/// the square of every finite double: the referee for nrm2 / norm_fro.
template <typename T>
long double wide_norm(const std::vector<T>& x) {
  long double s = 0;
  for (const T& v : x) {
    if constexpr (is_complex_v<T>) {
      s += static_cast<long double>(v.real()) * v.real() +
           static_cast<long double>(v.imag()) * v.imag();
    } else {
      s += static_cast<long double>(v) * v;
    }
  }
  return std::sqrt(s);
}

/// Entries of magnitude scale * [1, 10), signs and (complex) phases mixed.
template <typename T>
std::vector<T> scaled_entries(index_t n, real_t<T> scale, unsigned seed) {
  using R = real_t<T>;
  std::vector<T> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const R mag = scale * static_cast<R>(1 + (seed * 7 + i * 13) % 9);
    const R sign = (i + seed) % 3 == 0 ? R(-1) : R(1);
    if constexpr (is_complex_v<T>) {
      x[static_cast<std::size_t>(i)] = T(sign * mag, mag / R(3));
    } else {
      x[static_cast<std::size_t>(i)] = sign * mag;
    }
  }
  return x;
}

/// nrm2 and norm_fro (on a strided two-column view of the same entries)
/// agree with the wide referee to a few ulps, and with the scaled loop.
template <typename T>
void expect_norm_matches(const std::vector<T>& x, const char* what) {
  using R = real_t<T>;
  const index_t n = static_cast<index_t>(x.size());
  const long double ref = wide_norm(x);
  // A few ulps, and at least one ulp of a subnormal result.
  const R tol = R(4) * std::numeric_limits<R>::epsilon();
  const long double floor = std::numeric_limits<R>::denorm_min();
  const auto close = [&](R got) {
    if (ref == 0) return got == R{};
    return std::abs(static_cast<long double>(got) - ref) <= tol * ref + floor;
  };
  const R got = la::nrm2(n, x.data());
  EXPECT_TRUE(close(got)) << what << " n=" << n << ": " << got << " vs "
                          << static_cast<double>(ref);
  const R scaled = la::detail::norm_fro_scaled(
      ConstMatrixView<T>(x.data(), n, 1, std::max<index_t>(n, 1)));
  EXPECT_TRUE(close(scaled)) << what << " scaled loop n=" << n;
  // Two columns of n / 2 rows at ld = n / 2 + 1 skip one entry per column.
  if (n >= 4) {
    const index_t rows = n / 2 - 1;
    std::vector<T> cols;
    for (index_t j = 0; j < 2; ++j)
      for (index_t i = 0; i < rows; ++i)
        cols.push_back(x[static_cast<std::size_t>(j * (rows + 1) + i)]);
    const R fro = la::norm_fro(ConstMatrixView<T>(x.data(), rows, 2, rows + 1));
    const long double cref = wide_norm(cols);
    EXPECT_LE(std::abs(static_cast<long double>(fro) - cref),
              tol * cref + floor)
        << what << " strided n=" << n;
  }
}

template <typename T>
void check_norm_edges(const std::vector<real_t<T>>& scales) {
  for (const index_t n : {1, 7, 8, 9, 31, 64, 65}) {
    for (const real_t<T> s : scales) {
      expect_norm_matches(scaled_entries<T>(n, s, 1), "uniform scale");
      // One huge entry among tiny ones, and the reverse.
      for (const real_t<T> t : scales) {
        auto x = scaled_entries<T>(n, s, 2);
        x[static_cast<std::size_t>(n / 2)] = T(t);
        expect_norm_matches(x, "mixed scales");
      }
    }
    expect_norm_matches(std::vector<T>(static_cast<std::size_t>(n)), "zeros");
  }
}

TEST(Norms, DoubleEdgesMatchWideReferee) {
  check_norm_edges<double>({1.0, 1e-3, 1e200, 1e-200, 1e154, 1e-160, 4e-310,
                            std::numeric_limits<double>::max() / 64});
}

TEST(Norms, FloatEdgesMatchWideReferee) {
  check_norm_edges<float>({1.0f, 1e25f, 1e-25f, 1e19f, 1e-20f, 1e-40f});
}

TEST(Norms, ComplexEdgesMatchWideReferee) {
  check_norm_edges<zdouble>({1.0, 1e200, 1e-200, 1e-170, 4e-310});
  check_norm_edges<std::complex<float>>({1.0f, 1e25f, 1e-25f});
}

template <typename T>
void check_norm_nonfinite() {
  using R = real_t<T>;
  const R inf = std::numeric_limits<R>::infinity();
  const R nan = std::numeric_limits<R>::quiet_NaN();
  for (const index_t n : {1, 9, 64}) {
    for (const index_t at : {index_t{0}, n - 1}) {
      auto x = scaled_entries<T>(n, R(1), 3);
      x[static_cast<std::size_t>(at)] = T(-inf);
      EXPECT_EQ(la::nrm2(n, x.data()), inf) << "n=" << n;
      x[static_cast<std::size_t>(n / 2)] = T(inf);  // two infinities
      EXPECT_EQ(la::nrm2(n, x.data()), inf) << "n=" << n;
      x[static_cast<std::size_t>(at)] = T(nan);  // NaN wins over Inf
      EXPECT_TRUE(std::isnan(la::nrm2(n, x.data()))) << "n=" << n;
      EXPECT_TRUE(std::isnan(la::norm_fro(ConstMatrixView<T>(x.data(), n, 1, n))));
    }
  }
  if constexpr (is_complex_v<T>) {
    const T x[2] = {T(1, 0), T(0, -inf)};
    EXPECT_EQ(la::nrm2(2, x), inf);
  }
}

TEST(Norms, InfAndNanPropagate) {
  check_norm_nonfinite<double>();
  check_norm_nonfinite<float>();
  check_norm_nonfinite<zdouble>();
}

TEST(Workspace, ReleasedLeaseIsReusedByTheNextOne) {
  // The pool (not a thread_local) is what keeps arenas warm across the
  // engine's per-epoch worker threads: a lease hands its arena back on
  // destruction and the next checkout gets it again.
  EXPECT_EQ(la::tls_workspace(), nullptr);
  la::Workspace* first = nullptr;
  {
    la::WorkspaceLease lease;
    first = la::tls_workspace();
    ASSERT_NE(first, nullptr);
  }
  EXPECT_EQ(la::tls_workspace(), nullptr);
  la::WorkspaceLease again;
  EXPECT_EQ(la::tls_workspace(), first);
}

TEST(Workspace, NestedLeasesBindDistinctArenasAndRestore) {
  la::WorkspaceLease outer;
  la::Workspace* const outer_ws = la::tls_workspace();
  {
    la::WorkspaceLease inner;
    EXPECT_NE(la::tls_workspace(), outer_ws);
    EXPECT_NE(la::tls_workspace(), nullptr);
  }
  EXPECT_EQ(la::tls_workspace(), outer_ws);
}

TEST(Workspace, ScopesReleaseToTheirMarkInStackOrder) {
  la::WorkspaceLease lease;
  la::Workspace& ws = *la::tls_workspace();
  la::WorkspaceScope outer;
  double* const kept = outer.alloc<double>(100);
  std::uintptr_t sibling[2] = {0, 0};
  std::size_t chunks_after_first = 0;
  for (int k = 0; k < 2; ++k) {
    la::WorkspaceScope inner;
    sibling[k] = reinterpret_cast<std::uintptr_t>(inner.alloc<double>(1000));
    EXPECT_EQ(sibling[k] % la::Workspace::kAlign, 0u);
    if (k == 0) chunks_after_first = ws.num_chunks();
  }
  // The second scope reuses the bytes the first one released, past the
  // outer scope's live allocation, without growing the arena.
  EXPECT_EQ(sibling[0], sibling[1]);
  EXPECT_GE(sibling[0], reinterpret_cast<std::uintptr_t>(kept + 100));
  EXPECT_EQ(ws.num_chunks(), chunks_after_first);
}

}  // namespace
}  // namespace hcham
