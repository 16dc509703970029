// Scalar traits used by all templated numerical code.
//
// The library instantiates its kernels for `double` (the paper's "d" runs)
// and `std::complex<double>` (the paper's "z" runs); the traits also admit
// single precision for users who want it.
#pragma once

#include <cmath>
#include <complex>
#include <type_traits>

namespace hcham {

template <typename T>
struct scalar_traits {
  using real_type = T;
  static constexpr bool is_complex = false;
  static T conj(T x) { return x; }
  static real_type abs(T x) { return std::abs(x); }
  static real_type real(T x) { return x; }
};

template <typename R>
struct scalar_traits<std::complex<R>> {
  using real_type = R;
  static constexpr bool is_complex = true;
  static std::complex<R> conj(std::complex<R> x) { return std::conj(x); }
  static R abs(std::complex<R> x) { return std::abs(x); }
  static R real(std::complex<R> x) { return x.real(); }
};

template <typename T>
using real_t = typename scalar_traits<T>::real_type;

template <typename T>
inline constexpr bool is_complex_v = scalar_traits<T>::is_complex;

/// Conjugate that is a no-op for real scalars.
template <typename T>
inline T conj_if(T x) {
  return scalar_traits<T>::conj(x);
}

/// |x| as the associated real type.
template <typename T>
inline real_t<T> abs_val(T x) {
  return scalar_traits<T>::abs(x);
}

/// Squared modulus, avoiding the sqrt of std::abs for complex.
template <typename T>
inline real_t<T> abs_sq(T x) {
  if constexpr (is_complex_v<T>) {
    return x.real() * x.real() + x.imag() * x.imag();
  } else {
    return x * x;
  }
}

/// Short precision tag used in printed reports: "d" / "z" / "s" / "c".
template <typename T>
constexpr const char* precision_tag() {
  if constexpr (std::is_same_v<T, double>) return "d";
  if constexpr (std::is_same_v<T, float>) return "s";
  if constexpr (std::is_same_v<T, std::complex<double>>) return "z";
  if constexpr (std::is_same_v<T, std::complex<float>>) return "c";
  return "?";
}

}  // namespace hcham
