// Size-bucketed batched leaf-kernel streams (DESIGN.md section 12).
//
// H-arithmetic decomposes into thousands of small dense leaf calls — one
// GEMM per dense leaf, a chained GEMM pair per Rk leaf. Calling them one by
// one as the block-tree walk encounters them leaves batching opportunities
// on the floor: many of the calls share a shape (leaf sizes cluster around
// the clustering leaf_size and the truncation ranks), and grouping
// same-shape calls lets one loop stream them back to back over warm packing
// buffers — and is the natural drop-in point for a SIMD/GPU batched
// backend (Zaspel's many-core H-matrix reformulation, PAPERS.md).
//
// A BatchStream collects leaf descriptors during a traversal instead of
// executing them inline; flush() groups them by shape and runs each group
// as one loop. All deferred descriptors are pure accumulations
// (y += alpha * <leaf> * x), so any execution order is correct; the order
// chosen here is a deterministic function of the collected sequence
// (bucket-key order, then collection order within a bucket), keeping
// multi-worker runs bit-reproducible — each stream lives inside one task.
// An Rk apply (two chained GEMMs through a rank-sized temporary) stays one
// atomic descriptor so its internal dependency never crosses the bucket
// reorder; the temporary comes from the executing thread's workspace arena.
//
// Runtime control:
//   HCHAM_BATCH_DISABLE=1     execute every push immediately (legacy order)
//   HCHAM_BATCH_MIN_BUCKET=k  only shape groups with >= k descriptors are
//                             executed as grouped buckets; smaller groups
//                             run in plain collection order (default 4)
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "la/gemm.hpp"
#include "la/workspace.hpp"

namespace hcham::la {

/// Process-wide batching switches, initialized from the environment once
/// and mutable afterwards (benches toggle `enabled` to compare streamed vs
/// immediate leaf execution in one process).
struct BatchConfig {
  bool enabled = true;
  index_t min_bucket = 4;
};

inline BatchConfig& batch_config() {
  static BatchConfig config = [] {
    BatchConfig c;
    c.enabled = env_long("HCHAM_BATCH_DISABLE", 0) == 0;
    c.min_bucket = static_cast<index_t>(
        env_long_bounded("HCHAM_BATCH_MIN_BUCKET", 4, 1, 1 << 20));
    return c;
  }();
  return config;
}

/// Stream of deferred dense leaf kernels. Not thread-safe: one stream per
/// task (or per sequential traversal). Descriptors hold views into live
/// storage, so the collected operands must stay valid until flush() — the
/// H-walks guarantee this because the stream never outlives the kernel
/// call that owns the tiles.
template <typename T>
class BatchStream {
 public:
  BatchStream() : enabled_(batch_config().enabled) {}
  BatchStream(const BatchStream&) = delete;
  BatchStream& operator=(const BatchStream&) = delete;
  ~BatchStream() { flush(); }

  /// c += alpha * op(a) * op(b)  (beta is the caller's business).
  void push_gemm(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, MatrixView<T> c) {
    Item it;
    it.kind = Kind::Gemm;
    it.opa = opa;
    it.opb = opb;
    it.alpha = alpha;
    it.a = a;
    it.b = b;
    it.y = c;
    push(it);
  }

  /// y += alpha * op(U V^H) * x for an Rk leaf with factors u (m x k),
  /// v (n x k). The chained GEMM pair executes as one unit; the k x q
  /// temporary is carved from the executing thread's workspace arena.
  void push_rk_apply(Op op, T alpha, ConstMatrixView<T> u,
                     ConstMatrixView<T> v, ConstMatrixView<T> x,
                     MatrixView<T> y) {
    if (u.cols() == 0) return;  // zero Rk block contributes nothing
    Item it;
    it.kind = Kind::RkApply;
    it.opa = op;
    it.alpha = alpha;
    it.a = u;
    it.b = v;
    it.x = x;
    it.y = y;
    push(it);
  }

  /// y += alpha * x * (U V^H): the left-sided Rk apply of matmat_left.
  void push_rk_apply_left(T alpha, ConstMatrixView<T> u, ConstMatrixView<T> v,
                          ConstMatrixView<T> x, MatrixView<T> y) {
    if (u.cols() == 0) return;
    Item it;
    it.kind = Kind::RkApplyLeft;
    it.alpha = alpha;
    it.a = u;
    it.b = v;
    it.x = x;
    it.y = y;
    push(it);
  }

  index_t pending() const { return static_cast<index_t>(items_.size()); }

  /// Execute everything collected since the last flush. Groups of >=
  /// batch_config().min_bucket same-shape descriptors run as one bucket
  /// loop (shared workspace scope, so packing buffers stay warm across the
  /// bucket); smaller groups run in plain collection order first.
  void flush() {
    if (items_.empty()) return;
    ArithCounters& ctr = arith_counters();
    ctr.bump(ctr.batch_streams);

    // Shape census. The key is (kind, op pair, m, n, inner, q): descriptors
    // with equal keys run the same instruction sequence and can share a
    // backend dispatch.
    std::map<Key, std::uint32_t> census;
    for (const Item& it : items_) ++census[key_of(it)];

    const index_t min_bucket = batch_config().min_bucket;
    // Pass 1: singletons and sub-threshold groups, in collection order.
    for (const Item& it : items_)
      if (census[key_of(it)] < static_cast<std::uint32_t>(min_bucket))
        execute(it);
    // Pass 2: each full bucket as one loop. std::map iteration gives a
    // deterministic key order; within a bucket, collection order.
    for (const auto& [key, count] : census) {
      if (count < static_cast<std::uint32_t>(min_bucket)) continue;
      WorkspaceScope ws;  // one arena mark per bucket: packing stays warm
      for (const Item& it : items_) {
        if (key_of(it) != key) continue;
        execute(it);
        ctr.bump(ctr.batch_bucketed_ops);
      }
    }
    items_.clear();
  }

 private:
  enum class Kind : std::uint8_t { Gemm, RkApply, RkApplyLeft };

  struct Item {
    Kind kind = Kind::Gemm;
    Op opa = Op::NoTrans;
    Op opb = Op::NoTrans;
    T alpha{};
    ConstMatrixView<T> a;  ///< GEMM A, or the Rk U factor
    ConstMatrixView<T> b;  ///< GEMM B, or the Rk V factor
    ConstMatrixView<T> x;  ///< Rk apply input panel
    MatrixView<T> y;       ///< accumulation target
  };

  using Key = std::array<index_t, 6>;

  static Key key_of(const Item& it) {
    const index_t kind = static_cast<index_t>(it.kind) * 16 +
                         static_cast<index_t>(it.opa) * 4 +
                         static_cast<index_t>(it.opb);
    switch (it.kind) {
      case Kind::Gemm: {
        const index_t inner =
            it.opa == Op::NoTrans ? it.a.cols() : it.a.rows();
        return Key{kind, it.y.rows(), it.y.cols(), inner, 0, 0};
      }
      case Kind::RkApply:
      case Kind::RkApplyLeft:
        return Key{kind, it.a.rows(), it.b.rows(), it.a.cols(), it.x.cols(),
                   0};
    }
    return Key{};
  }

  void push(const Item& it) {
    arith_counters().bump(arith_counters().batch_ops);
    if (!enabled_) {
      arith_counters().bump(arith_counters().batch_immediate_ops);
      execute(it);
      return;
    }
    items_.push_back(it);
  }

  void execute(const Item& it) const {
    switch (it.kind) {
      case Kind::Gemm:
        gemm<T>(it.opa, it.opb, it.alpha, it.a, it.b, T{1}, it.y);
        return;
      case Kind::RkApply:
        execute_rk(it);
        return;
      case Kind::RkApplyLeft:
        execute_rk_left(it);
        return;
    }
  }

  // y += alpha * op(U V^H) x; mirrors hmat::detail::matmat_accumulate's Rk
  // leaf case (matmat.hpp), with the temporary taken from the arena.
  void execute_rk(const Item& it) const {
    const index_t k = it.a.cols();
    const index_t q = it.x.cols();
    WorkspaceScope ws;
    MatrixView<T> tmp = ws.matrix<T>(k, q);
    switch (it.opa) {
      case Op::NoTrans:
        gemm<T>(Op::ConjTrans, Op::NoTrans, T{1}, it.b, it.x, T{}, tmp);
        gemm<T>(Op::NoTrans, Op::NoTrans, it.alpha, it.a, tmp, T{1}, it.y);
        return;
      case Op::ConjTrans:
        gemm<T>(Op::ConjTrans, Op::NoTrans, T{1}, it.a, it.x, T{}, tmp);
        gemm<T>(Op::NoTrans, Op::NoTrans, it.alpha, it.b, tmp, T{1}, it.y);
        return;
      case Op::Trans: {
        // (U V^H)^T = conj(V) U^T; apply conj(V) entry-wise.
        gemm<T>(Op::Trans, Op::NoTrans, T{1}, it.a, it.x, T{}, tmp);
        const index_t n = it.b.rows();
        for (index_t c = 0; c < q; ++c)
          for (index_t i = 0; i < n; ++i) {
            T acc{};
            for (index_t l = 0; l < k; ++l)
              acc += conj_if(it.b(i, l)) * tmp(l, c);
            it.y(i, c) += it.alpha * acc;
          }
        return;
      }
    }
  }

  // y += alpha * (x U) V^H.
  void execute_rk_left(const Item& it) const {
    const index_t k = it.a.cols();
    const index_t p = it.x.rows();
    WorkspaceScope ws;
    MatrixView<T> tmp = ws.matrix<T>(p, k);
    gemm<T>(Op::NoTrans, Op::NoTrans, T{1}, it.x, it.a, T{}, tmp);
    gemm<T>(Op::NoTrans, Op::ConjTrans, it.alpha, tmp, it.b, T{1}, it.y);
  }

  bool enabled_;
  std::vector<Item> items_;
};

}  // namespace hcham::la
