// Micro-benchmarks of the dense substrate (the MKL replacement): the packed
// register-tiled GEMM engine vs plain axpy/dot reference loops across
// sizes, shapes, op combinations, and scalar types; the leaf shapes the
// H-matrix solves issue, through la::gemm against both the packed engine
// and the reference loops; TRSM / GETRF / POTRF / QR / ACA riding on the
// engine; the rk::truncate kernel at the H-LU core shapes and on an
// accumulated core below the tolerance, and nrm2,
// qr_pivoted_rank and rk::compact_tail at the factorizations' mean
// truncation shapes. Emits
// BENCH_kernels.json (schema: EXPERIMENTS.md) and prints a human-readable
// table.
//
// Usage: kernels_micro [--smoke] [--out=PATH]
//   --smoke    trimmed sweep for CI (still covers blocked-vs-reference at
//              n = 512 and n = 1024)
//   --out=PATH result file (default BENCH_kernels.json)
//
// Exit status is nonzero if the blocked double GEMM is slower than the
// reference kernel at n = 512 — the regression gate CI runs on every push.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "la/la.hpp"
#include "la/potrf.hpp"
#include "rk/aca.hpp"
#include "rk/truncation.hpp"

using namespace hcham;

namespace {

bench::BenchJson g_json;

void report(const bench::BenchRecord& r) {
  std::printf("%-24s n=%-6ld reps=%d  median %.3e s  min %.3e s  %8.2f GF/s",
              r.name.c_str(), static_cast<long>(r.size), r.reps, r.median_s,
              r.min_s, r.gflops);
  for (const auto& [key, value] : r.extra)
    std::printf("  %s %.4g", key.c_str(), value);
  std::printf("\n");
  g_json.add(r);
}

/// The axpy/dot-style reference loops the engine is gated against:
/// C = op(A) * op(B) (beta = 0), column-major, k-blocked for cache.
template <typename T>
void gemm_reference(la::Op opa, la::Op opb, la::ConstMatrixView<T> a,
                    la::ConstMatrixView<T> b, la::MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = opa == la::Op::NoTrans ? a.cols() : a.rows();
  const auto opb_at = [&](index_t l, index_t j) -> T {
    if (opb == la::Op::NoTrans) return b(l, j);
    return opb == la::Op::Trans ? b(j, l) : conj_if(b(j, l));
  };
  c.set_zero();
  if (opa == la::Op::NoTrans) {
    constexpr index_t kb = 128;
    for (index_t l0 = 0; l0 < k; l0 += kb) {
      const index_t lend = std::min(l0 + kb, k);
      for (index_t j = 0; j < n; ++j) {
        T* cj = c.col(j);
        for (index_t l = l0; l < lend; ++l) {
          const T blj = opb_at(l, j);
          const T* al = a.col(l);
          for (index_t i = 0; i < m; ++i) cj[i] += al[i] * blj;
        }
      }
    }
    return;
  }
  const bool conja = opa == la::Op::ConjTrans;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      const T* ai = a.col(i);
      T acc{};
      for (index_t l = 0; l < k; ++l)
        acc += (conja ? conj_if(ai[l]) : ai[l]) * opb_at(l, j);
      c(i, j) = acc;
    }
}

/// GEMM timing for one scalar type: blocked engine vs reference kernel.
template <typename T>
void gemm_pair(const char* tag, index_t m, index_t n, index_t k, int reps,
               bool also_reference, la::Op opa = la::Op::NoTrans,
               la::Op opb = la::Op::NoTrans, const char* suffix = "") {
  const index_t am = opa == la::Op::NoTrans ? m : k;
  const index_t an = opa == la::Op::NoTrans ? k : m;
  const index_t bm = opb == la::Op::NoTrans ? k : n;
  const index_t bn = opb == la::Op::NoTrans ? n : k;
  auto a = la::Matrix<T>::random(am, an, 1);
  auto b = la::Matrix<T>::random(bm, bn, 2);
  la::Matrix<T> c(m, n);
  // Complex multiplies cost 4x a real one (the conventional count is 8mnk
  // vs 2mnk).
  const double flops = (is_complex_v<T> ? 8.0 : 2.0) *
                       static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  report(bench::bench_time(
      std::string("gemm_blocked_") + tag + suffix, n, flops, reps, [&] {
        la::gemm_blocked<T>(opa, opb, T{1}, a.cview(), b.cview(), T{},
                            c.view());
      }));
  if (also_reference) {
    report(bench::bench_time(
        std::string("gemm_reference_") + tag + suffix, n, flops, reps, [&] {
          gemm_reference<T>(opa, opb, a.cview(), b.cview(), c.view());
        }));
  }
}

/// One leaf-shape product C -= op(A) B, as the H-matrix solves issue it,
/// timed three ways: la::gemm (the small-shape driver), the packed engine
/// and the reference loops. Named leaf_<path>_<tag>_<op>_<m>x<n>x<k>.
template <typename T>
void leaf_gemm(const char* tag, la::Op opa, index_t m, index_t n, index_t k,
               int reps) {
  const bool nt = opa == la::Op::NoTrans;
  const auto a = la::Matrix<T>::random(nt ? m : k, nt ? k : m, 1);
  const auto b = la::Matrix<T>::random(k, n, 2);
  la::Matrix<T> c(m, n);
  const double flops = (is_complex_v<T> ? 8.0 : 2.0) * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  const std::string shape = std::string(tag) + (nt ? "_nn_" : "_hn_") +
                            std::to_string(m) + "x" + std::to_string(n) +
                            "x" + std::to_string(k);
  // Enough calls per repetition to time microsecond kernels.
  constexpr int kCalls = 2000;
  const auto timed = [&](const char* path, auto&& call) {
    report(bench::bench_time(std::string("leaf_") + path + "_" + shape, m,
                             flops * kCalls, reps, [&] {
                               for (int i = 0; i < kCalls; ++i) call();
                             }));
  };
  timed("gemm", [&] {
    la::gemm<T>(opa, la::Op::NoTrans, T{-1}, a.cview(), b.cview(), T{1},
                c.view());
  });
  timed("packed", [&] {
    la::gemm_blocked<T>(opa, la::Op::NoTrans, T{-1}, a.cview(), b.cview(),
                        T{1}, c.view());
  });
  timed("reference", [&] {
    gemm_reference<T>(opa, la::Op::NoTrans, a.cview(), b.cview(), c.view());
  });
}

/// Per-call median of `calls` runs of `kernel(i)` on inputs `setup()`
/// rebuilds before each repetition (outside the timed region).
template <typename Setup, typename Kernel>
bench::BenchRecord per_call_record(std::string name, index_t size,
                                   double flops, int reps, int calls,
                                   Setup&& setup, Kernel&& kernel) {
  std::vector<double> per_call;
  for (int rep = 0; rep < reps; ++rep) {
    setup();
    Timer t;
    for (int i = 0; i < calls; ++i) kernel(i);
    per_call.push_back(t.seconds() / calls);
  }
  std::sort(per_call.begin(), per_call.end());
  bench::BenchRecord rec;
  rec.name = std::move(name);
  rec.size = size;
  rec.reps = reps;
  rec.median_s = per_call[per_call.size() / 2];
  rec.min_s = per_call.front();
  rec.gflops = flops > 0 ? flops / rec.median_s * 1e-9 : 0.0;
  return rec;
}

/// Leaf-size TRSM (left, lower, unit: the forward solve), GETRF and POTRF
/// at n = 64, repeated on fresh copies of one well-conditioned matrix.
template <typename T>
void leaf_factor_records(const char* tag, int reps) {
  constexpr index_t n = 64;
  constexpr int kCalls = 200;
  auto g = la::Matrix<T>::random(n, n, 5);
  for (index_t i = 0; i < n; ++i) g(i, i) += T(static_cast<real_t<T>>(n));
  la::Matrix<T> spd(n, n);
  la::gemm<T>(la::Op::NoTrans, la::Op::ConjTrans, T{1}, g.cview(), g.cview(),
              T{}, spd.view());
  const double cplx = is_complex_v<T> ? 4.0 : 1.0;
  const double n3 = static_cast<double>(n) * n * n;
  std::vector<la::Matrix<T>> work(kCalls);
  const auto run = [&](const std::string& name, double flops,
                       const la::Matrix<T>& src, auto&& kernel) {
    report(per_call_record(
        name, n, cplx * flops, reps, kCalls,
        [&] {
          for (auto& w : work) w = la::Matrix<T>::from_view(src.cview());
        },
        [&](int i) { kernel(work[static_cast<std::size_t>(i)]); }));
  };
  for (const index_t nrhs : {4, 32}) {
    const auto rhs = la::Matrix<T>::random(n, nrhs, 6);
    run(std::string("leaf_trsm_") + tag + "_rhs" + std::to_string(nrhs),
        static_cast<double>(n) * n * nrhs, rhs, [&](la::Matrix<T>& x) {
          la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::NoTrans,
                   la::Diag::Unit, T{1}, g.cview(), x.view());
        });
  }
  run(std::string("leaf_getrf_nopiv_") + tag, 2.0 / 3.0 * n3, g,
      [](la::Matrix<T>& x) { la::getrf_nopiv(x.view()); });
  run(std::string("leaf_potrf_") + tag, n3 / 3.0, spd,
      [](la::Matrix<T>& x) { la::potrf(x.view()); });
}

/// One rk::truncate record: `make` builds a fresh Rk block per call, timed
/// only in truncate, with the Jacobi sweeps, the columns handed to Jacobi
/// and the truncated rank per call. A leased arena stands in for the engine
/// worker the kernel runs on.
template <typename T, typename Make>
void truncate_record(std::string name, index_t size, int reps,
                     const rk::TruncationParams& params, Make&& make) {
  la::WorkspaceLease lease;
  constexpr int kCalls = 10;
  std::vector<rk::RkMatrix<T>> work;
  double ranks = 0;
  const ArithCounterSnapshot before = snapshot_arith_counters();
  bench::BenchRecord rec = per_call_record(
      std::move(name), size, 0.0, reps, kCalls,
      [&] {
        work.clear();
        for (int c = 0; c < kCalls; ++c) work.push_back(make());
      },
      [&](int c) {
        ranks += static_cast<double>(
            rk::truncate(work[static_cast<std::size_t>(c)], params));
      });
  const ArithCounterSnapshot after = snapshot_arith_counters();
  const double calls = static_cast<double>(reps) * kCalls;
  rec.extra.emplace_back(
      "sweeps_per_call",
      static_cast<double>(after.svd_sweeps - before.svd_sweeps) / calls);
  rec.extra.emplace_back(
      "jacobi_cols_per_call",
      static_cast<double>(after.svd_columns - before.svd_columns) / calls);
  rec.extra.emplace_back("rank_per_call", ranks / calls);
  report(rec);
}

/// rk::truncate at the fine-grain H-LU core shapes: a rank-16 256 x 256
/// block accumulated with copies of itself to `width` factor columns (32 =
/// the block plus itself), truncated back to rank 16. One record per width,
/// sized by the width; timing only, no gate. These cores are exactly rank
/// deficient, so the deflation tolerance does not change what Jacobi sees.
template <typename T>
void truncate_records(const char* tag, int reps) {
  const index_t m = 256, r = 16;
  const auto u0 = la::Matrix<T>::random(m, r, 11);
  const auto v0 = la::Matrix<T>::random(m, r, 12);
  for (const index_t width : {32, 64, 128}) {
    truncate_record<T>(std::string("rk_truncate_") + tag, width, reps,
                       rk::TruncationParams{1e-8, -1}, [&] {
                         rk::RkMatrix<T> w(la::Matrix<T>::from_view(u0.cview()),
                                           la::Matrix<T>::from_view(v0.cview()));
                         while (w.rank() < width)
                           w.append_factors(T{1}, u0.cview(), v0.cview());
                         return w;
                       });
  }
}

/// m x k with orthonormal columns scaled by sigma (k entries).
template <typename T>
la::Matrix<T> graded_factor(index_t m, const std::vector<double>& sigma,
                            std::uint64_t seed) {
  const auto k = static_cast<index_t>(sigma.size());
  la::Matrix<T> q, r;
  la::qr_thin<T>(la::Matrix<T>::random(m, k, seed).cview(), q, r);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      q(i, j) *= T(static_cast<real_t<T>>(sigma[static_cast<std::size_t>(j)]));
  return q;
}

/// rk::truncate on an accumulated 50 x 50 core, the shape the Tile-H
/// flushes see: a rank-9 head (sigma_i = 10^-i) plus three independent
/// rank-10 updates whose singular values fall 10 per decade from 1e-9 to
/// 1e-12, truncated at 10^-7.5. Unlike the exactly deficient cores above,
/// its 39 columns are numerically independent at kk * eps, so this record
/// shows how many of them the deflation hands to Jacobi.
template <typename T>
void truncate_acc_record(const char* tag, int reps) {
  const index_t m = 50;
  std::vector<double> head;
  for (int i = 0; i < 9; ++i) head.push_back(std::pow(10.0, -i));
  la::Matrix<T> u = graded_factor<T>(m, head, 41);
  la::Matrix<T> v = graded_factor<T>(m, std::vector<double>(9, 1.0), 42);
  for (int c = 0; c < 3; ++c) {
    std::vector<double> sigma;
    for (int j = 0; j < 10; ++j)
      sigma.push_back(std::pow(10.0, -9 - c - j / 10.0));
    const auto seed = static_cast<std::uint64_t>(43 + 2 * c);
    const auto append = [m](la::Matrix<T>& f, const la::Matrix<T>& g) {
      la::Matrix<T> fg(m, f.cols() + g.cols());
      la::copy(f.cview(), fg.view().block(0, 0, m, f.cols()));
      la::copy(g.cview(), fg.view().block(0, f.cols(), m, g.cols()));
      f = std::move(fg);
    };
    append(u, graded_factor<T>(m, sigma, seed));
    append(v, graded_factor<T>(m, std::vector<double>(10, 1.0), seed + 1));
  }
  truncate_record<T>(std::string("rk_truncate_acc_") + tag, u.cols(), reps,
                     rk::TruncationParams{std::pow(10.0, -7.5), -1}, [&] {
                       return rk::RkMatrix<T>(la::Matrix<T>::from_view(u.cview()),
                                              la::Matrix<T>::from_view(v.cview()));
                     });
}

/// The Level-1 and rank-revealing kernels under the truncation at the mean
/// shapes of the H-LU factorizations: nrm2 at n = 64, qr_pivoted_rank on a
/// 26 x 26 core of rank 13, and rk::compact_tail on an m x m block whose
/// kp-column pending tail has rank kp / 2 (m x kp = 72 x 38 real, 56 x 26
/// complex). Timing only, no gate.
template <typename T>
void truncation_kernel_records(const char* tag, index_t m, index_t kp,
                               int reps) {
  la::WorkspaceLease lease;
  const double cplx = is_complex_v<T> ? 4.0 : 1.0;
  {
    constexpr index_t n = 64;
    constexpr int kCalls = 20000;
    const auto x = la::Matrix<T>::random(n, 1, 21);
    volatile real_t<T> sink{};
    report(per_call_record(
        std::string("nrm2_") + tag, n, cplx * 2.0 * n, reps, kCalls, [] {},
        [&](int) { sink = sink + la::nrm2(n, x.data()); }));
  }
  {
    constexpr index_t n = 26, r = 13;
    constexpr int kCalls = 500;
    la::Matrix<T> core(n, n);
    la::gemm<T>(la::Op::NoTrans, la::Op::ConjTrans, T{1},
                la::Matrix<T>::random(n, r, 22).cview(),
                la::Matrix<T>::random(n, r, 23).cview(), T{}, core.view());
    la::Matrix<T> q(n, n), rr(n, n);
    // Factored in place: every call gets a fresh copy of the core.
    std::vector<la::Matrix<T>> work(kCalls);
    report(per_call_record(
        std::string("qr_pivoted_rank_") + tag, n,
        cplx * 4.0 * n * n * r, reps, kCalls,
        [&] {
          for (auto& w : work) w = la::Matrix<T>::from_view(core.cview());
        },
        [&](int i) {
          if (la::qr_pivoted_rank<T>(work[static_cast<std::size_t>(i)].view(),
                                     q.view(), rr.view(), 1e-8) != r)
            std::abort();
        }));
  }
  {
    constexpr int kCalls = 200;
    const index_t head = 8, r = kp / 2;
    const auto mix = la::Matrix<T>::random(r, kp, 24);
    la::Matrix<T> tu(m, kp), tv(m, kp);
    la::gemm<T>(la::Op::NoTrans, la::Op::NoTrans, T{1},
                la::Matrix<T>::random(m, r, 25).cview(), mix.cview(), T{},
                tu.view());
    la::gemm<T>(la::Op::NoTrans, la::Op::NoTrans, T{1},
                la::Matrix<T>::random(m, r, 26).cview(), mix.cview(), T{},
                tv.view());
    std::vector<rk::RkMatrix<T>> work;
    const rk::TruncationParams params{1e-8, -1};
    report(per_call_record(
        std::string("rk_compact_tail_") + tag, kp, 0.0, reps, kCalls,
        [&] {
          work.clear();
          for (int c = 0; c < kCalls; ++c) {
            rk::RkMatrix<T> w(la::Matrix<T>::random(m, head, 27),
                              la::Matrix<T>::random(m, head, 28));
            w.append_factors(T{1}, tu.cview(), tv.cview());
            work.push_back(std::move(w));
          }
        },
        [&](int c) {
          if (rk::compact_tail(work[static_cast<std::size_t>(c)], head,
                               params) > head + r)
            std::abort();
        }));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const int reps = smoke ? 3 : 5;
  std::printf("# kernels_micro%s (git %s)\n", smoke ? " --smoke" : "",
              bench::bench_git_rev().c_str());

  // Square double GEMM, blocked vs reference. 512 is the CI regression gate
  // and 1024 the acceptance point, so both run even in smoke mode.
  const std::vector<index_t> dsizes =
      smoke ? std::vector<index_t>{256, 512, 1024}
            : std::vector<index_t>{64, 128, 256, 512, 1024};
  for (const index_t n : dsizes) gemm_pair<double>("d", n, n, n, reps, true);

  // Complex double and float.
  const std::vector<index_t> zsizes = smoke ? std::vector<index_t>{512}
                                            : std::vector<index_t>{128, 256, 512};
  for (const index_t n : zsizes) {
    gemm_pair<std::complex<double>>("z", n, n, n, reps, true);
    gemm_pair<float>("s", n, n, n, reps, true);
  }

  // Transpose/conjugate op combinations (packing-path coverage).
  if (!smoke) {
    const la::Op ops[3] = {la::Op::NoTrans, la::Op::Trans, la::Op::ConjTrans};
    const char* names = "NTC";
    for (int ia = 0; ia < 3; ++ia)
      for (int ib = 0; ib < 3; ++ib) {
        const std::string suffix =
            std::string("_") + names[ia] + names[ib];
        gemm_pair<double>("d", 256, 256, 256, reps, false, ops[ia], ops[ib],
                          suffix.c_str());
      }
  }

  // Skinny shapes: the rank-k updates and tall-thin panels H-arithmetic
  // actually issues.
  if (!smoke) {
    gemm_pair<double>("d", 1024, 1024, 32, reps, true, la::Op::NoTrans,
                      la::Op::NoTrans, "_rank32");
    gemm_pair<double>("d", 1024, 32, 1024, reps, true, la::Op::NoTrans,
                      la::Op::NoTrans, "_thin_n");
    gemm_pair<double>("d", 32, 1024, 1024, reps, true, la::Op::NoTrans,
                      la::Op::NoTrans, "_thin_m");
  }

  // Consumers of the engine.
  {
    const index_t n = smoke ? 512 : 1024;
    auto a = la::Matrix<double>::random(n, n, 3);
    for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
    auto b0 = la::Matrix<double>::random(n, n, 4);
    report(bench::bench_time("trsm_lln_d", n, static_cast<double>(n) *
                                                  static_cast<double>(n) *
                                                  static_cast<double>(n),
                             reps, [&] {
                               auto x = la::Matrix<double>::from_view(b0.cview());
                               la::trsm(la::Side::Left, la::Uplo::Lower,
                                        la::Op::NoTrans, la::Diag::Unit, 1.0,
                                        a.cview(), x.view());
                             }));
    auto g = la::Matrix<double>::random(n, n, 5);
    for (index_t i = 0; i < n; ++i) g(i, i) += static_cast<double>(n);
    report(bench::bench_time(
        "getrf_nopiv_d", n,
        2.0 / 3.0 * static_cast<double>(n) * static_cast<double>(n) *
            static_cast<double>(n),
        reps, [&] {
          auto lu = la::Matrix<double>::from_view(g.cview());
          la::getrf_nopiv(lu.view());
        }));
    const index_t qm = n;
    const index_t qn = smoke ? 64 : 256;
    auto q0 = la::Matrix<double>::random(qm, qn, 7);
    report(bench::bench_time(
        "qr_thin_d", qm,
        2.0 * static_cast<double>(qm) * static_cast<double>(qn) *
            static_cast<double>(qn),
        reps, [&] {
          la::Matrix<double> q, r;
          la::qr_thin<double>(q0.cview(), q, r);
        }));
    const index_t am = smoke ? 512 : 1024;
    auto gen = [am](index_t i, index_t j) {
      const double x = static_cast<double>(i) / static_cast<double>(am);
      const double y = 2.0 + static_cast<double>(j) / static_cast<double>(am);
      return 1.0 / (x + y);
    };
    report(bench::bench_time("aca_partial_d", am, 0.0, reps, [&] {
      auto r = rk::aca_partial<double>(gen, am, am, 1e-6);
      if (r.rank() < 0) std::abort();  // keep the result observable
    }));
  }

  // Leaf shapes of the H-matrix solves (leaf 64, RHS blocks of 4, 6 and 32
  // columns, ranks 4-16) and the leaf factorizations.
  for (const index_t n : {4, 6, 32}) {
    leaf_gemm<double>("d", la::Op::NoTrans, 64, n, 64, reps);
    leaf_gemm<std::complex<double>>("z", la::Op::NoTrans, 64, n, 64, reps);
  }
  for (const index_t r : {4, 10, 16})
    for (const index_t n : {4, 32}) {
      leaf_gemm<double>("d", la::Op::ConjTrans, r, n, 64, reps);
      leaf_gemm<std::complex<double>>("z", la::Op::ConjTrans, r, n, 64, reps);
    }
  for (const index_t r : {4, 10, 16}) {
    leaf_gemm<double>("d", la::Op::NoTrans, 64, 32, r, reps);
    leaf_gemm<std::complex<double>>("z", la::Op::NoTrans, 64, 32, r, reps);
  }
  leaf_factor_records<double>("d", reps);
  leaf_factor_records<std::complex<double>>("z", reps);

  truncate_records<double>("d", reps);
  truncate_records<std::complex<double>>("z", reps);
  truncate_acc_record<std::complex<double>>("z", reps);
  truncation_kernel_records<double>("d", 72, 38, reps);
  truncation_kernel_records<std::complex<double>>("z", 56, 26, reps);

  if (!g_json.write(out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("# wrote %s (%zu records)\n", out.c_str(),
              g_json.records().size());

  // Regression gate: the blocked engine must beat the reference at n = 512.
  const bench::BenchRecord* blocked = g_json.find("gemm_blocked_d", 512);
  const bench::BenchRecord* reference = g_json.find("gemm_reference_d", 512);
  if (!blocked || !reference) {
    std::fprintf(stderr, "error: n=512 gemm records missing from sweep\n");
    return 2;
  }
  if (blocked->gflops < reference->gflops) {
    std::fprintf(stderr,
                 "FAIL: blocked GEMM (%.2f GF/s) slower than reference "
                 "(%.2f GF/s) at n=512\n",
                 blocked->gflops, reference->gflops);
    return 1;
  }
  std::printf("# gate ok: blocked %.2f GF/s >= reference %.2f GF/s at n=512 "
              "(%.2fx at n=1024)\n",
              blocked->gflops, reference->gflops,
              g_json.find("gemm_blocked_d", 1024)->gflops /
                  g_json.find("gemm_reference_d", 1024)->gflops);
  return 0;
}
