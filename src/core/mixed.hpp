// Mixed-precision factorization options (DESIGN.md section 12).
//
// The H-factorization is only accurate to the compression eps anyway, so
// for fp64 operators most of the factorization flops can run in fp32: the
// factors act as a preconditioner and core::solve_refined recovers the
// fp64 digits with a few residual/correction sweeps against the fp64
// operator. Demoting the factors halves the memory traffic on the
// GEMM-bound hot path and doubles the SIMD width of the blocked kernels
// (gemm_blocked.hpp's float microkernel); a looser factor tolerance
// additionally shrinks the Rk ranks the factorization drags around.
//
// Environment:
//   HCHAM_FACTOR_PRECISION=fp32|single   factor in demoted precision
//                          =native|fp64  factor in the operator precision
//   HCHAM_FACTOR_EPS=x     factor-stage truncation tolerance override
//                          (0 < x < 1; default 0 keeps the operator's eps)
#pragma once

#include <string>

#include "common/env.hpp"
#include "common/scalar.hpp"

namespace hcham::core {

/// Precision the factors are stored and factorized in, relative to the
/// operator's scalar type T.
enum class FactorPrecision {
  Native,  ///< factors in T (the default; the pre-mixed behavior)
  Single,  ///< factors in demoted_t<T> (fp32 / complex<float>); a no-op
           ///< when T is already single precision
};

/// Options of the precision-decoupled factorization path.
struct FactorOptions {
  FactorPrecision precision = FactorPrecision::Native;
  /// Truncation tolerance of the factor stage; 0 keeps the operator's
  /// compression eps. Loosening it (e.g. 1e-4 factors under a 1e-6
  /// operator) is where most of the mixed-precision speedup comes from —
  /// refinement pays it back at one extra sweep per ~eps_factor/eps digit.
  double eps = 0.0;

  bool mixed() const { return precision == FactorPrecision::Single; }

  static FactorOptions from_env() {
    FactorOptions o;
    const std::string p = env_string("HCHAM_FACTOR_PRECISION", "native");
    if (p == "fp32" || p == "single" || p == "s") {
      o.precision = FactorPrecision::Single;
    }
    o.eps = env_double_bounded("HCHAM_FACTOR_EPS", 0.0, 0.0, 0.5);
    return o;
  }
};

}  // namespace hcham::core
