// Interaction kernels of the TEST_FEMBEM analogue (paper Section V-A):
//   real case:    K(d) = 1 / d
//   complex case: K(d) = exp(i k d) / d, with the wave number k chosen by
//                 the "10 points per wavelength" rule of thumb.
// The singularity at d = 0 is removed by setting d to half the mesh step.
#pragma once

#include <cmath>
#include <complex>

#include "cluster/point.hpp"
#include "common/scalar.hpp"

namespace hcham::bem {

/// Wave number for the oscillatory kernel: lambda = points_per_wavelength *
/// mesh_step, k = 2*pi / lambda.
inline double wavenumber_rule_of_thumb(double mesh_step,
                                       double points_per_wavelength = 10.0) {
  return 2.0 * 3.14159265358979323846 /
         (points_per_wavelength * mesh_step);
}

/// K(d) = 1/d with the singularity regularized at half the mesh step.
struct LaplaceKernel {
  double mesh_step;

  double operator()(double d) const {
    const double dd = (d < 0.5 * mesh_step) ? 0.5 * mesh_step : d;
    return 1.0 / dd;
  }
};

/// K(d) = exp(ikd)/d with the same regularization.
struct HelmholtzKernel {
  double mesh_step;
  double k;

  std::complex<double> operator()(double d) const {
    const double dd = (d < 0.5 * mesh_step) ? 0.5 * mesh_step : d;
    return std::exp(std::complex<double>(0.0, k * dd)) / dd;
  }
};

/// Scalar-generic kernel selection: evaluates a_ij = K(|x_i - x_j|) for the
/// precision the solver is instantiated with.
template <typename T>
struct FemBemKernel;

template <>
struct FemBemKernel<double> {
  LaplaceKernel kernel;
  explicit FemBemKernel(double mesh_step, double /*k*/ = 0.0)
      : kernel{mesh_step} {}
  double operator()(const cluster::Point3& a, const cluster::Point3& b) const {
    return kernel(cluster::distance(a, b));
  }
};

template <>
struct FemBemKernel<std::complex<double>> {
  HelmholtzKernel kernel;
  explicit FemBemKernel(double mesh_step, double k)
      : kernel{mesh_step, k} {}
  std::complex<double> operator()(const cluster::Point3& a,
                                  const cluster::Point3& b) const {
    return kernel(cluster::distance(a, b));
  }
};

// Single-precision problems (the float refinement tests and float-first
// property suites): evaluate in double, round once at the end, so the fp32
// operator is the correctly-rounded image of the fp64 one.
template <>
struct FemBemKernel<float> {
  LaplaceKernel kernel;
  explicit FemBemKernel(double mesh_step, double /*k*/ = 0.0)
      : kernel{mesh_step} {}
  float operator()(const cluster::Point3& a, const cluster::Point3& b) const {
    return static_cast<float>(kernel(cluster::distance(a, b)));
  }
};

template <>
struct FemBemKernel<std::complex<float>> {
  HelmholtzKernel kernel;
  explicit FemBemKernel(double mesh_step, double k)
      : kernel{mesh_step, k} {}
  std::complex<float> operator()(const cluster::Point3& a,
                                 const cluster::Point3& b) const {
    const std::complex<double> v = kernel(cluster::distance(a, b));
    return {static_cast<float>(v.real()), static_cast<float>(v.imag())};
  }
};

}  // namespace hcham::bem
