// Fine-grain task-parallel H-LU over a single (pure) H-matrix: the
// analogue of the proprietary HMAT library's STARPU implementation that
// the paper benchmarks against (ref [10]): the recursive H-LU is expanded
// symbolically into one task per leaf-level GETRF / TRSM / GEMM, with all
// data dependencies enumerated explicitly on the leaf blocks. This is the
// approach whose "very large number of dependencies" the paper discusses -
// the DAG produced here is orders of magnitude denser than the Tile-H one,
// which is precisely the effect Figs. 6-7 measure.
//
// The expansion is valid because the block structure (leaf kinds) is fixed
// at assembly: only payloads (dense entries, Rk factors) change during the
// factorization, so the recursion tree of hlu/htrsm/hgemm is known ahead
// of execution.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "hmatrix/adjoint.hpp"
#include "hmatrix/hchol.hpp"
#include "hmatrix/hgemm.hpp"
#include "hmatrix/hlu.hpp"
#include "hmatrix/htrsm.hpp"
#include "runtime/engine.hpp"

namespace hcham::core {

/// `Sink` is anything with Engine's register_data/submit pair: the engine
/// itself (fine-grain HMAT baseline) or an rt::NestedEpoch, which lets a
/// running Tile-H kernel re-use this exact decomposition as its nested
/// subgraph (DESIGN.md section 11) — same recursion, same access lists,
/// so nested execution inherits the bit-determinism argument wholesale.
template <typename T, typename Sink = rt::Engine>
class HluTaskGraph {
 public:
  HluTaskGraph(Sink& engine, hmat::HMatrix<T>& a, rk::TruncationParams tp)
      : engine_(engine), a_(a), tp_(tp) {}

  /// Submit the whole fine-grain factorization DAG. Call
  /// engine.wait_all() to execute it.
  void submit() { task_lu(a_); }

  /// Submit the fine-grain lower-Cholesky DAG (the hchol recursion split
  /// per leaf, for Hermitian positive-definite H-matrices).
  void submit_cholesky() { task_chol(a_); }

  // Sub-operation entry points, for nested tile kernels that decompose one
  // TRSM/GEMM tile task (whose operands are other tiles' H-matrices, not
  // subblocks of `a`): the expansions work on any nodes — handles are
  // created per node on demand.
  using NodeRef = hmat::HMatrix<T>;
  void submit_trsm_lower(const NodeRef& l, NodeRef& b) {
    task_trsm_lower(l, b);
  }
  void submit_trsm_upper(const NodeRef& u, NodeRef& b) {
    task_trsm_upper(u, b);
  }
  void submit_trsm_lower_right_adjoint(const NodeRef& l, NodeRef& b) {
    task_trsm_lra(l, b);
  }
  /// C <- C - A B.
  void submit_gemm(const NodeRef& a, const NodeRef& b, NodeRef& c) {
    task_gemm(a, b, c);
  }
  /// C <- C - A B^H.
  void submit_gemm_adjoint_b(const NodeRef& a, const NodeRef& b, NodeRef& c) {
    task_gemm_adjb(a, b, c);
  }

 private:
  using Node = hmat::HMatrix<T>;

  rt::Handle leaf_handle(const Node& n) {
    auto it = leaf_handles_.find(&n);
    if (it != leaf_handles_.end()) return it->second;
    const rt::Handle h = engine_.register_data("hleaf");
    leaf_handles_.emplace(&n, h);
    return h;
  }

  /// All leaf handles under `n` (cached).
  const std::vector<rt::Handle>& leaves_of(const Node& n) {
    auto it = subtree_cache_.find(&n);
    if (it != subtree_cache_.end()) return it->second;
    std::vector<rt::Handle> result;
    collect_leaves(n, result);
    return subtree_cache_.emplace(&n, std::move(result)).first->second;
  }

  void collect_leaves(const Node& n, std::vector<rt::Handle>& out) {
    if (n.is_leaf()) {
      out.push_back(leaf_handle(n));
      return;
    }
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j) collect_leaves(n.child(i, j), out);
  }

  static void append_reads(std::vector<rt::Access>& acc,
                           const std::vector<rt::Handle>& hs) {
    for (const rt::Handle h : hs) acc.push_back(rt::read(h));
  }

  void task_lu(Node& a) {
    if (a.is_leaf()) {
      const rk::TruncationParams tp = tp_;
      Node* node = &a;
      engine_.submit(
          [node, tp] {
            const int info = hmat::hlu(*node, tp);
            HCHAM_CHECK_MSG(info == 0, "zero pivot in task H-LU");
          },
          {rt::readwrite(leaf_handle(a))}, 3, "getrf");
      return;
    }
    task_lu(a.child(0, 0));
    task_trsm_lower(a.child(0, 0), a.child(0, 1));
    task_trsm_upper(a.child(0, 0), a.child(1, 0));
    task_gemm(a.child(1, 0), a.child(0, 1), a.child(1, 1));
    task_lu(a.child(1, 1));
  }

  void task_trsm_lower(const Node& l, Node& b) {
    if (b.is_leaf()) {
      std::vector<rt::Access> acc;
      append_reads(acc, leaves_of(l));
      acc.push_back(rt::readwrite(leaf_handle(b)));
      const rk::TruncationParams tp = tp_;
      const Node* lp = &l;
      Node* bp = &b;
      engine_.submit([lp, bp, tp] { hmat::htrsm_lower_left(*lp, *bp, tp); },
                     std::move(acc), 2, "trsm");
      return;
    }
    // b subdivided implies l subdivided (diagonal recursion reaches leaves
    // only at cluster leaves).
    for (int j = 0; j < 2; ++j) {
      task_trsm_lower(l.child(0, 0), b.child(0, j));
      task_gemm(l.child(1, 0), b.child(0, j), b.child(1, j));
      task_trsm_lower(l.child(1, 1), b.child(1, j));
    }
  }

  void task_trsm_upper(const Node& u, Node& b) {
    if (b.is_leaf()) {
      std::vector<rt::Access> acc;
      append_reads(acc, leaves_of(u));
      acc.push_back(rt::readwrite(leaf_handle(b)));
      const rk::TruncationParams tp = tp_;
      const Node* up = &u;
      Node* bp = &b;
      engine_.submit([up, bp, tp] { hmat::htrsm_upper_right(*up, *bp, tp); },
                     std::move(acc), 2, "trsm");
      return;
    }
    for (int i = 0; i < 2; ++i) {
      task_trsm_upper(u.child(0, 0), b.child(i, 0));
      task_gemm(b.child(i, 0), u.child(0, 1), b.child(i, 1));
      task_trsm_upper(u.child(1, 1), b.child(i, 1));
    }
  }

  void task_gemm(const Node& a, const Node& b, Node& c) {
    if (!c.is_leaf() && !a.is_leaf() && !b.is_leaf()) {
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
          for (int k = 0; k < 2; ++k)
            task_gemm(a.child(i, k), b.child(k, j), c.child(i, j));
      return;
    }
    // Leaf target, or a leaf operand blocking the structural recursion:
    // one task covering the whole (sub)product. Reads every leaf of both
    // operands, writes every leaf of C.
    std::vector<rt::Access> acc;
    append_reads(acc, leaves_of(a));
    append_reads(acc, leaves_of(b));
    for (const rt::Handle h : leaves_of(c)) acc.push_back(rt::readwrite(h));
    const rk::TruncationParams tp = tp_;
    const Node* ap = &a;
    const Node* bp = &b;
    Node* cp = &c;
    // Deferred: every leaf of C is later read-write'd by its panel TRSM or
    // diagonal GETRF task, which flushes pending updates on entry.
    engine_.submit(
        [ap, bp, cp, tp] { hmat::hgemm_deferred(T{-1}, *ap, *bp, *cp, tp); },
        std::move(acc), 1, "gemm");
  }

  // --- Cholesky expansion (mirrors hmatrix/hchol.hpp) ----------------------

  void task_chol(Node& a) {
    if (a.is_leaf()) {
      const rk::TruncationParams tp = tp_;
      Node* node = &a;
      engine_.submit(
          [node, tp] {
            const int info = hmat::hchol(*node, tp);
            HCHAM_CHECK_MSG(info == 0,
                            "non-positive-definite pivot in task H-Cholesky");
          },
          {rt::readwrite(leaf_handle(a))}, 3, "potrf");
      return;
    }
    task_chol(a.child(0, 0));
    task_trsm_lra(a.child(0, 0), a.child(1, 0));
    task_gemm_adjb(a.child(1, 0), a.child(1, 0), a.child(1, 1));
    task_chol(a.child(1, 1));
  }

  /// B <- B L^-H with L lower (the Cholesky panel solve).
  void task_trsm_lra(const Node& l, Node& b) {
    if (b.is_leaf()) {
      std::vector<rt::Access> acc;
      append_reads(acc, leaves_of(l));
      acc.push_back(rt::readwrite(leaf_handle(b)));
      const rk::TruncationParams tp = tp_;
      const Node* lp = &l;
      Node* bp = &b;
      engine_.submit(
          [lp, bp, tp] { hmat::htrsm_lower_right_adjoint(*lp, *bp, tp); },
          std::move(acc), 2, "trsm");
      return;
    }
    for (int i = 0; i < 2; ++i) {
      task_trsm_lra(l.child(0, 0), b.child(i, 0));
      task_gemm_adjb(b.child(i, 0), l.child(1, 0), b.child(i, 1));
      task_trsm_lra(l.child(1, 1), b.child(i, 1));
    }
  }

  /// C <- C - A B^H. The adjoint is materialized at execution time, so the
  /// task reads B's leaves directly; adjoint_of is an exact (truncation-
  /// free) deep copy whose children mirror B's, which keeps the structural
  /// recursion and the leaf values identical to the sequential hchol's
  /// whole-panel adjoint.
  void task_gemm_adjb(const Node& a, const Node& b, Node& c) {
    if (!c.is_leaf() && !a.is_leaf() && !b.is_leaf()) {
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
          for (int k = 0; k < 2; ++k)
            task_gemm_adjb(a.child(i, k), b.child(j, k), c.child(i, j));
      return;
    }
    std::vector<rt::Access> acc;
    append_reads(acc, leaves_of(a));
    append_reads(acc, leaves_of(b));
    for (const rt::Handle h : leaves_of(c)) acc.push_back(rt::readwrite(h));
    const rk::TruncationParams tp = tp_;
    const Node* ap = &a;
    const Node* bp = &b;
    Node* cp = &c;
    engine_.submit(
        [ap, bp, cp, tp] {
          const hmat::HMatrix<T> bh = hmat::adjoint_of(*bp);
          hmat::hgemm_deferred(T{-1}, *ap, bh, *cp, tp);
        },
        std::move(acc), 1, "gemm");
  }

  Sink& engine_;
  Node& a_;
  rk::TruncationParams tp_;
  std::unordered_map<const Node*, rt::Handle> leaf_handles_;
  std::unordered_map<const Node*, std::vector<rt::Handle>> subtree_cache_;
};

/// Convenience: factorize a pure H-matrix with the fine-grain task DAG.
template <typename T>
void task_hlu(rt::Engine& engine, hmat::HMatrix<T>& a,
              const rk::TruncationParams& tp) {
  HluTaskGraph<T> graph(engine, a, tp);
  graph.submit();
  engine.wait_all();
}

/// Convenience: Cholesky-factorize a pure HPD H-matrix with the fine-grain
/// task DAG.
template <typename T>
void task_hchol(rt::Engine& engine, hmat::HMatrix<T>& a,
                const rk::TruncationParams& tp) {
  HluTaskGraph<T> graph(engine, a, tp);
  graph.submit_cholesky();
  engine.wait_all();
}

/// 64-bit hash of the realized block structure: node kind and extent in
/// recursion order. The fine-grain DAG is a pure function of this (the
/// HluTaskGraph recursion branches on is_leaf() alone and the expansion
/// order is deterministic), so equal signatures mean interchangeable
/// captured graphs.
template <typename T>
std::uint64_t hmat_structure_signature(const hmat::HMatrix<T>& a) {
  std::uint64_t h = hash_mix(0x686d'6174'7369'67ULL,  // "hmatsig"
                             static_cast<std::uint64_t>(a.kind()));
  h = hash_mix(h, static_cast<std::uint64_t>(a.rows()));
  h = hash_mix(h, static_cast<std::uint64_t>(a.cols()));
  if (!a.is_leaf())
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j)
        h = hash_mix(h, hmat_structure_signature(a.child(i, j)));
  return h;
}

/// task_hlu through the graph cache: the dense fine-grain DAG — whose
/// submission cost the paper singles out — is captured on first sight of
/// the block structure and replayed afterwards (DESIGN.md section 10).
template <typename T>
void task_hlu_cached(rt::Engine& engine, hmat::HMatrix<T>& a,
                     const rk::TruncationParams& tp, rt::GraphCache* cache) {
  const std::uint64_t key =
      hash_mix(hmat_structure_signature(a), 0x686c75ULL);
  rt::run_epoch_cached(engine, cache, key, [&] {
    HluTaskGraph<T> graph(engine, a, tp);
    graph.submit();
  });
}

}  // namespace hcham::core
