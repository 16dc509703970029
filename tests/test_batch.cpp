// Batched leaf-kernel stream tests (la/batch.hpp): deferred GEMM / Rk-apply
// descriptors must produce exactly what the immediate calls produce, for
// every op variant; the disable switch executes pushes immediately; the
// min-bucket threshold only changes grouping, never results.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "la/batch.hpp"
#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::BatchStream;
using la::ConstMatrixView;
using la::Matrix;
using la::MatrixView;
using la::Op;

template <typename T>
void gemm_stream_matches_immediate() {
  // A mix of shapes: two groups of same-shape GEMMs (bucketable) plus a
  // singleton, accumulating into disjoint targets.
  const index_t m = 24, k = 16, q = 5;
  std::vector<Matrix<T>> as, bs;
  Matrix<T> y_stream(m, 3 * q), y_ref(m, 3 * q);
  y_stream.view().fill(T{1});
  y_ref.view().fill(T{1});
  for (int g = 0; g < 3; ++g) {
    as.push_back(Matrix<T>::random(m, k, 100 + g));
    bs.push_back(Matrix<T>::random(k, q, 200 + g));
  }
  {
    BatchStream<T> s;
    for (int g = 0; g < 3; ++g) {
      auto yv = y_stream.block(0, g * q, m, q);
      s.push_gemm(Op::NoTrans, Op::NoTrans, T{2}, as[g].cview(), bs[g].cview(),
                  yv);
    }
    s.flush();
    EXPECT_EQ(s.pending(), 0);
  }
  for (int g = 0; g < 3; ++g) {
    auto yv = y_ref.block(0, g * q, m, q);
    la::gemm<T>(Op::NoTrans, Op::NoTrans, T{2}, as[g].cview(), bs[g].cview(),
                T{1}, yv);
  }
  EXPECT_LT(testing::rel_diff<T>(y_stream.cview(), y_ref.cview()), 1e-6);
}

TEST(BatchStream, GemmMatchesImmediateDouble) {
  gemm_stream_matches_immediate<double>();
}
TEST(BatchStream, GemmMatchesImmediateFloat) {
  gemm_stream_matches_immediate<float>();
}
TEST(BatchStream, GemmMatchesImmediateComplex) {
  gemm_stream_matches_immediate<std::complex<double>>();
}

template <typename T>
void rk_apply_matches_dense(Op op) {
  const index_t m = 30, n = 22, k = 6, q = 4;
  Matrix<T> u = Matrix<T>::random(m, k, 1);
  Matrix<T> v = Matrix<T>::random(n, k, 2);
  Matrix<T> dense(m, n);
  la::gemm<T>(Op::NoTrans, Op::ConjTrans, T{1}, u.cview(), v.cview(), T{},
              dense.view());
  const index_t xr = op == Op::NoTrans ? n : m;
  const index_t yr = op == Op::NoTrans ? m : n;
  Matrix<T> x = Matrix<T>::random(xr, q, 3);
  Matrix<T> y_stream(yr, q), y_ref(yr, q);
  y_stream.view().fill(T{-1});
  y_ref.view().fill(T{-1});
  {
    BatchStream<T> s;
    s.push_rk_apply(op, T{3}, u.cview(), v.cview(), x.cview(),
                    y_stream.view());
  }  // destructor flushes
  testing::reference_gemm<T>(op, Op::NoTrans, T{3}, dense.cview(), x.cview(),
                             T{1}, y_ref.view());
  EXPECT_LT(testing::rel_diff<T>(y_stream.cview(), y_ref.cview()), 1e-6)
      << "op=" << static_cast<int>(op);
}

TEST(BatchStream, RkApplyAllOpsDouble) {
  rk_apply_matches_dense<double>(Op::NoTrans);
  rk_apply_matches_dense<double>(Op::Trans);
  rk_apply_matches_dense<double>(Op::ConjTrans);
}
TEST(BatchStream, RkApplyAllOpsComplex) {
  rk_apply_matches_dense<std::complex<double>>(Op::NoTrans);
  rk_apply_matches_dense<std::complex<double>>(Op::Trans);
  rk_apply_matches_dense<std::complex<double>>(Op::ConjTrans);
}

TEST(BatchStream, RkApplyLeftMatchesDense) {
  using T = std::complex<double>;
  const index_t m = 18, n = 26, k = 5, p = 3;
  Matrix<T> u = Matrix<T>::random(m, k, 4);
  Matrix<T> v = Matrix<T>::random(n, k, 5);
  Matrix<T> dense(m, n);
  la::gemm<T>(Op::NoTrans, Op::ConjTrans, T{1}, u.cview(), v.cview(), T{},
              dense.view());
  Matrix<T> x = Matrix<T>::random(p, m, 6);
  Matrix<T> y_stream(p, n), y_ref(p, n);
  y_stream.view().fill(T{2});
  y_ref.view().fill(T{2});
  {
    BatchStream<T> s;
    s.push_rk_apply_left(T{1}, u.cview(), v.cview(), x.cview(),
                         y_stream.view());
  }
  la::gemm<T>(Op::NoTrans, Op::NoTrans, T{1}, x.cview(), dense.cview(), T{1},
              y_ref.view());
  EXPECT_LT(testing::rel_diff<T>(y_stream.cview(), y_ref.cview()), 1e-12);
}

TEST(BatchStream, ZeroRankRkIsSkipped) {
  BatchStream<double> s;
  Matrix<double> u(8, 0), v(6, 0), x(6, 2), y(8, 2);
  s.push_rk_apply(Op::NoTrans, 1.0, u.cview(), v.cview(), x.cview(),
                  y.view());
  EXPECT_EQ(s.pending(), 0);
}

TEST(BatchStream, DisabledExecutesPushesImmediately) {
  la::BatchConfig& cfg = la::batch_config();
  const bool was = cfg.enabled;
  cfg.enabled = false;
  Matrix<double> a = Matrix<double>::random(10, 10, 7);
  Matrix<double> b = Matrix<double>::random(10, 10, 8);
  Matrix<double> y(10, 10);
  y.view().set_zero();
  {
    BatchStream<double> s;
    s.push_gemm(Op::NoTrans, Op::NoTrans, 1.0, a.cview(), b.cview(),
                y.view());
    // No flush yet — disabled mode must have executed the push already.
    EXPECT_EQ(s.pending(), 0);
    EXPECT_GT(static_cast<double>(la::norm_fro(y.cview())), 0.0);
  }
  cfg.enabled = was;
}

// min_bucket only changes grouping (sub-threshold groups run in collection
// order, full buckets as grouped loops) — results must be identical either
// way because every descriptor is an independent accumulation.
TEST(BatchStream, MinBucketThresholdDoesNotChangeResults) {
  la::BatchConfig& cfg = la::batch_config();
  const index_t was = cfg.min_bucket;
  const index_t m = 16, k = 12, q = 3;
  std::vector<Matrix<double>> as, bs;
  for (int g = 0; g < 6; ++g) {
    as.push_back(Matrix<double>::random(m, k, 300 + g));
    bs.push_back(Matrix<double>::random(k, q, 400 + g));
  }
  auto run = [&](index_t min_bucket) {
    cfg.min_bucket = min_bucket;
    Matrix<double> y(m, q);
    y.view().set_zero();
    BatchStream<double> s;
    for (int g = 0; g < 6; ++g)
      s.push_gemm(Op::NoTrans, Op::NoTrans, 1.0, as[g].cview(), bs[g].cview(),
                  y.view());
    s.flush();
    return y;
  };
  Matrix<double> grouped = run(1);     // everything bucketed
  Matrix<double> inline_ = run(1000);  // everything sub-threshold
  cfg.min_bucket = was;
  // Same target, same order within the (single) shape group -> bitwise.
  EXPECT_EQ(testing::rel_diff<double>(grouped.cview(), inline_.cview()), 0.0);
}

TEST(BatchStream, CountersTallyPushes) {
  const auto before = snapshot_arith_counters();
  {
    BatchStream<double> s;
    Matrix<double> a = Matrix<double>::random(6, 6, 1);
    Matrix<double> b = Matrix<double>::random(6, 6, 2);
    Matrix<double> y(6, 6);
    y.view().set_zero();
    for (int i = 0; i < 5; ++i)
      s.push_gemm(Op::NoTrans, Op::NoTrans, 1.0, a.cview(), b.cview(),
                  y.view());
    s.flush();
  }
  const auto after = snapshot_arith_counters();
  EXPECT_GE(after.batch_ops - before.batch_ops, 5u);
  EXPECT_GE(after.batch_streams - before.batch_streams, 1u);
}

}  // namespace
}  // namespace hcham
