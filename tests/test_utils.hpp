// Shared helpers for the gtest suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <complex>
#include <optional>
#include <string>

#include "la/la.hpp"

namespace hcham::testing {

using zdouble = std::complex<double>;

/// RAII environment override for the env-reading code under test: sets
/// `name` (nullptr value: unsets it) and, on destruction, restores the
/// value the variable had before -- or its absence -- so a value the
/// caller exported survives the test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    set(value);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() { set(previous_ ? previous_->c_str() : nullptr); }

  void set(const char* value) {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

/// Naive O(mnk) reference product: C = alpha * op(A) * op(B) + beta * C.
template <typename T>
void reference_gemm(la::Op opa, la::Op opb, T alpha, la::ConstMatrixView<T> a,
                    la::ConstMatrixView<T> b, T beta, la::MatrixView<T> c) {
  auto at = [&](index_t i, index_t j) -> T {
    switch (opa) {
      case la::Op::NoTrans: return a(i, j);
      case la::Op::Trans: return a(j, i);
      default: return conj_if(a(j, i));
    }
  };
  auto bt = [&](index_t i, index_t j) -> T {
    switch (opb) {
      case la::Op::NoTrans: return b(i, j);
      case la::Op::Trans: return b(j, i);
      default: return conj_if(b(j, i));
    }
  };
  const index_t k =
      (opa == la::Op::NoTrans) ? a.cols() : a.rows();
  for (index_t j = 0; j < c.cols(); ++j) {
    for (index_t i = 0; i < c.rows(); ++i) {
      T acc{};
      for (index_t l = 0; l < k; ++l) acc += at(i, l) * bt(l, j);
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

/// Substitution reference for la::trsm: solves op(A) X = alpha B (Left) or
/// X op(A) = alpha B (Right) one scalar at a time on the explicit op(A),
/// overwriting B with X.
template <typename T>
void reference_trsm(la::Side side, la::Uplo uplo, la::Op op, la::Diag diag,
                    T alpha, la::ConstMatrixView<T> a, la::MatrixView<T> b) {
  const index_t n = a.rows();
  auto mat = [&](index_t i, index_t j) -> T {
    switch (op) {
      case la::Op::NoTrans: return a(i, j);
      case la::Op::Trans: return a(j, i);
      default: return conj_if(a(j, i));
    }
  };
  const bool lower = (op == la::Op::NoTrans) == (uplo == la::Uplo::Lower);
  const bool unit = diag == la::Diag::Unit;
  // Left: column j of B against op(A). Right: row j of B against op(A)^T,
  // whose triangle is the mirror one.
  const bool left = side == la::Side::Left;
  const bool fwd = left == lower;
  const index_t count = left ? b.cols() : b.rows();
  for (index_t j = 0; j < count; ++j) {
    auto x = [&](index_t i) -> T& { return left ? b(i, j) : b(j, i); };
    auto m = [&](index_t i, index_t l) { return left ? mat(i, l) : mat(l, i); };
    for (index_t s = 0; s < n; ++s) {
      const index_t i = fwd ? s : n - 1 - s;
      T acc = alpha * x(i);
      for (index_t l = fwd ? 0 : i + 1; l < (fwd ? i : n); ++l)
        acc -= m(i, l) * x(l);
      x(i) = unit ? acc : acc / m(i, i);
    }
  }
}

/// Relative Frobenius distance ||A - B||_F / max(1, ||B||_F).
template <typename T>
double rel_diff(la::ConstMatrixView<T> a, la::ConstMatrixView<T> b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  la::Matrix<T> d = la::Matrix<T>::from_view(a);
  la::axpy(T{-1}, b, d.view());
  const double nb = static_cast<double>(la::norm_fro(b));
  return static_cast<double>(la::norm_fro(d.cview())) / std::max(1.0, nb);
}

/// Well-conditioned random test matrix: random entries with a boosted
/// diagonal, so unpivoted LU and triangular solves stay stable.
template <typename T>
la::Matrix<T> diagonally_dominant(index_t n, std::uint64_t seed) {
  la::Matrix<T> a = la::Matrix<T>::random(n, n, seed);
  for (index_t i = 0; i < n; ++i) a(i, i) += T(static_cast<real_t<T>>(n));
  return a;
}

/// Build an exactly rank-r m x n matrix from random factors.
template <typename T>
la::Matrix<T> rank_r_matrix(index_t m, index_t n, index_t r,
                            std::uint64_t seed) {
  la::Matrix<T> u = la::Matrix<T>::random(m, r, seed);
  la::Matrix<T> v = la::Matrix<T>::random(n, r, seed + 1);
  la::Matrix<T> a(m, n);
  la::gemm(la::Op::NoTrans, la::Op::ConjTrans, T{1}, u.cview(), v.cview(),
           T{}, a.view());
  return a;
}

}  // namespace hcham::testing
