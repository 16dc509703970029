// Woodbury rank-k operator updates (DESIGN.md section 12): wrap a factored
// TileHMatrix A together with a pending low-rank delta U V^H and serve
// solves of (A + U V^H) x = b WITHOUT refactorizing, via the
// Sherman-Morrison-Woodbury identity
//
//   (A + U V^H)^{-1} = A^{-1} - A^{-1} U (I + V^H A^{-1} U)^{-1} V^H A^{-1}.
//
// The expensive piece, Y = A^{-1} U, is one batched k-RHS tiled H-solve —
// graph-cached after the first apply, so successive updated solves cost two
// tall-skinny GEMMs, a k x k dense triangular solve, and one base H-solve
// of the actual right-hand side. A is factored at H-accuracy eps, so the
// Woodbury combination inherits the same eps-level forward error as a full
// refactorization of A + U V^H.
//
// Deltas accumulate by factor concatenation (exact, like rk::Accumulator)
// with a tight-eps compaction toward the configured rank budget; when the
// honest delta rank outgrows the budget — or the capacitance matrix turns
// ill-conditioned — needs_rebase() fires and the operator folds the delta
// into A and refactorizes: synchronously via rebase(), or in a background
// thread via rebase_async() while Woodbury keeps serving the old state.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "core/tile_h.hpp"
#include "la/getrf.hpp"
#include "lifecycle/config.hpp"
#include "rk/accumulator.hpp"
#include "runtime/graph_cache.hpp"

namespace hcham::lifecycle {

template <typename T>
class UpdatableOperator {
 public:
  struct Options {
    index_t max_rank = 0;  ///< delta rank budget; 0 = HCHAM_WOODBURY_MAX_RANK
    bool cholesky = false;
    index_t refine_iters = 0;  ///< Woodbury-residual refinement sweeps
    int rebase_workers = 0;  ///< background refactorization; 0 = engine's count
  };

  /// Takes the ASSEMBLED operator (kept pristine for delta folding and
  /// residual matvecs) and factorizes a copy of it on `engine`.
  UpdatableOperator(rt::Engine& engine, core::TileHMatrix<T> op, Options opts)
      : engine_(engine), opts_(opts), op_(std::move(op)),
        delta_(op_.size(), op_.size()) {
    if (opts_.max_rank <= 0)
      opts_.max_rank = LifecycleConfig::from_env().woodbury_max_rank;
    // Tight: compaction may only shed numerically redundant delta
    // directions, never genuine rank — see rk::compact_to_budget.
    delta_tp_.eps = 100.0 * std::numeric_limits<real_t<T>>::epsilon();
    delta_tp_.max_rank = -1;
    factored_ = refactor(engine_, op_);
  }

  ~UpdatableOperator() { wait_rebase(); }
  UpdatableOperator(const UpdatableOperator&) = delete;
  UpdatableOperator& operator=(const UpdatableOperator&) = delete;

  index_t size() const { return op_.size(); }
  const core::TileHMatrix<T>& base() const { return op_; }

  /// Stage A += alpha * u * v^H (original index ordering, u and v are
  /// n x j). Takes effect on the next solve; cheap (factor concatenation).
  void update(la::ConstMatrixView<T> u, la::ConstMatrixView<T> v,
              T alpha = T{1}) {
    std::lock_guard<std::mutex> lk(mu_);
    delta_.append_factors(alpha, u, v);
    // While a background rebase is folding a snapshot of the leading delta
    // columns, compaction must not mix them with newer ones: the swap-in
    // step drops exactly the snapshot prefix.
    if (!rebase_running_)
      rk::compact_to_budget(delta_, opts_.max_rank, delta_tp_);
    prepared_ = false;
    lifecycle_counters().bump(lifecycle_counters().woodbury_updates);
  }

  /// Solve (A + U V^H) X = B in place, original ordering.
  void solve(la::MatrixView<T> b) {
    std::unique_lock<std::mutex> lk(mu_);
    lifecycle_counters().bump(lifecycle_counters().woodbury_solves);
    if (delta_.rank() == 0) {
      solve_base(b);
      return;
    }
    if (!prepared_) prepare_locked();
    if (cap_info_ != 0) {
      // Exactly singular capacitance (measure-zero safety net): fold the
      // delta in and solve against the fresh factors. Wait out any
      // background rebase first — the predicate wait re-checks under mu_,
      // so a rebase_async started in an unlock window cannot slip past and
      // read op_ while rebase_locked mutates it.
      rebase_cv_.wait(lk, [this] { return !rebase_running_; });
      if (delta_.rank() > 0) rebase_locked();
      solve_base(b);
      return;
    }
    la::Matrix<T> b0;
    if (opts_.refine_iters > 0) b0 = la::Matrix<T>::from_view(b);
    apply_inverse_locked(b);
    for (index_t it = 0; it < opts_.refine_iters; ++it) {
      la::Matrix<T> r = la::Matrix<T>::from_view(b0.cview());
      for (index_t c = 0; c < b.cols(); ++c) {
        op_.matvec(T{-1}, b.col(c), T{1}, r.view().col(c));
        delta_.gemv(la::Op::NoTrans, T{-1}, b.col(c), r.view().col(c));
      }
      apply_inverse_locked(r.view());
      la::axpy(T{1}, r.cview(), b);
    }
  }

  index_t delta_rank() {
    std::lock_guard<std::mutex> lk(mu_);
    return delta_.rank();
  }

  /// The rebase signal: honest delta rank above the budget, or a
  /// capacitance factorization whose diagonal spread flags near-singularity.
  bool needs_rebase() {
    std::lock_guard<std::mutex> lk(mu_);
    return delta_.rank() > opts_.max_rank || cap_ill_conditioned_;
  }

  bool rebase_in_progress() {
    std::lock_guard<std::mutex> lk(mu_);
    return rebase_running_;
  }

  /// Fold the delta into A and refactorize, synchronously. Solves issued
  /// after return hit the fresh factors with an empty delta.
  void rebase() {
    std::unique_lock<std::mutex> lk(mu_);
    // Predicate wait: no unlock window where a fresh rebase_async could
    // start unseen between "background rebase done" and rebase_locked().
    rebase_cv_.wait(lk, [this] { return !rebase_running_; });
    if (delta_.rank() == 0 && !cap_ill_conditioned_) return;
    rebase_locked();
  }

  /// Fold-and-refactorize on a private background engine while this
  /// operator keeps serving Woodbury solves against the current state; the
  /// finished factors are swapped in under the lock, and only delta columns
  /// staged after the snapshot survive the swap. No-op if one is running.
  void rebase_async() {
    std::lock_guard<std::mutex> lk(mu_);
    if (rebase_running_) return;
    if (delta_.rank() == 0 && !cap_ill_conditioned_) return;
    // Snapshot the delta prefix this rebase will fold.
    const index_t k0 = delta_.rank();
    la::Matrix<T> su = la::Matrix<T>::from_view(delta_.u().cview());
    la::Matrix<T> sv = la::Matrix<T>::from_view(delta_.v().cview());
    rebase_running_ = true;
    // Reap a finished (rebase_running_ was false) predecessor before the
    // handle is reused; it is past its critical section, so joining under
    // mu_ only waits for thread teardown, never for mu_ itself.
    if (rebase_thread_.joinable()) rebase_thread_.join();
    rebase_thread_ = std::thread(
        [this, k0, su = std::move(su), sv = std::move(sv)]() mutable {
          const int workers = opts_.rebase_workers > 0 ? opts_.rebase_workers
                                                       : engine_.num_workers();
          rt::Engine bg({.num_workers = workers, .policy = engine_.policy()});
          // Reads of op_ race only with other reads (matvec, sync rebase is
          // excluded by rebase_running_): safe without the lock.
          core::TileHMatrix<T> next_op = op_.deep_copy(bg);
          fold_into(next_op, su.cview(), sv.cview());
          // No graph cache on the throwaway background engine.
          core::TileHMatrix<T> next_f = next_op.deep_copy(bg);
          if (opts_.cholesky) {
            next_f.factorize_cholesky(bg, nullptr);
          } else {
            next_f.factorize(bg, nullptr);
          }
          bg.wait_all();
          // Handles are engine-owned: re-home tiles onto the serving engine
          // before the background engine dies.
          core::TileHMatrix<T> homed_op = re_home(std::move(next_op));
          core::TileHMatrix<T> homed_f = re_home(std::move(next_f));
          std::lock_guard<std::mutex> lk2(mu_);
          op_ = std::move(homed_op);
          *factored_ = std::move(homed_f);
          // Keep only delta columns staged after the snapshot (update()
          // skipped compaction while we ran, so the prefix is intact).
          const index_t k = delta_.rank();
          if (k > k0) {
            la::Matrix<T> tu =
                la::Matrix<T>::from_view(delta_.u().block(0, k0, size(), k - k0));
            la::Matrix<T> tv =
                la::Matrix<T>::from_view(delta_.v().block(0, k0, size(), k - k0));
            delta_.set_factors(std::move(tu), std::move(tv));
            rk::compact_to_budget(delta_, opts_.max_rank, delta_tp_);
          } else {
            delta_.set_zero();
          }
          prepared_ = false;
          cap_ill_conditioned_ = false;
          cap_info_ = 0;
          rebase_running_ = false;
          lifecycle_counters().bump(lifecycle_counters().woodbury_rebases);
          rebase_cv_.notify_all();
        });
  }

  /// Block until a pending rebase_async has swapped in (no-op otherwise)
  /// and reap the finished background thread. The thread handle is only
  /// touched under mu_ (rebase_async move-assigns it under the same lock);
  /// the join itself runs after the lock drops.
  void wait_rebase() {
    std::thread done;
    {
      std::unique_lock<std::mutex> lk(mu_);
      rebase_cv_.wait(lk, [this] { return !rebase_running_; });
      done.swap(rebase_thread_);
    }
    if (done.joinable()) done.join();
  }

 private:
  std::unique_ptr<core::TileHMatrix<T>> refactor(rt::Engine& engine,
                                                 const core::TileHMatrix<T>& op) {
    auto f = std::make_unique<core::TileHMatrix<T>>(
        op.deep_copy(engine));
    if (opts_.cholesky) {
      f->factorize_cholesky(engine, &cache_);
    } else {
      f->factorize(engine, &cache_);
    }
    return f;
  }

  void solve_base(la::MatrixView<T> b) {
    if (opts_.cholesky) {
      factored_->solve_cholesky(engine_, b, &cache_);
    } else {
      factored_->solve(engine_, b, &cache_);
    }
  }

  /// Factor the capacitance C = I + V^H (A^{-1} U); one batched k-RHS base
  /// solve, then dense k x k LU.
  void prepare_locked() {
    const index_t k = delta_.rank();
    y_ = la::Matrix<T>::from_view(delta_.u().cview());
    solve_base(y_.view());
    cap_.reset(k, k);
    cap_.set_identity();
    la::gemm(la::Op::ConjTrans, la::Op::NoTrans, T{1}, delta_.v().cview(),
             y_.cview(), T{1}, cap_.view());
    cap_ipiv_.assign(static_cast<std::size_t>(k), 0);
    cap_info_ = la::getrf(cap_.view(), cap_ipiv_.data());
    const auto [lo, hi] = la::diag_abs_range(cap_.cview());
    cap_ill_conditioned_ =
        cap_info_ != 0 ||
        lo <= hi * std::numeric_limits<real_t<T>>::epsilon() * real_t<T>{1e3};
    prepared_ = true;
    lifecycle_counters().bump(lifecycle_counters().woodbury_prepares);
  }

  /// b := (A + U V^H)^{-1} b given prepared capacitance factors.
  void apply_inverse_locked(la::MatrixView<T> b) {
    solve_base(b);
    const index_t k = delta_.rank();
    la::Matrix<T> w(k, b.cols());
    la::gemm(la::Op::ConjTrans, la::Op::NoTrans, T{1}, delta_.v().cview(),
             la::ConstMatrixView<T>(b), T{}, w.view());
    la::getrs(la::Op::NoTrans, cap_.cview(), cap_ipiv_.data(), w.view());
    la::gemm(la::Op::NoTrans, la::Op::NoTrans, T{-1}, y_.cview(), w.cview(),
             T{1}, b);
  }

  /// target += U V^H, distributing permuted factor slices tile by tile
  /// (U, V arrive in original ordering; tiles live in tree ordering).
  void fold_into(core::TileHMatrix<T>& target, la::ConstMatrixView<T> u,
                 la::ConstMatrixView<T> v) {
    const index_t n = size();
    const index_t k = u.cols();
    if (k == 0) return;
    const cluster::ClusterTree& tree = target.tree();
    la::Matrix<T> up(n, k), vp(n, k);
    for (index_t l = 0; l < k; ++l)
      for (index_t i = 0; i < n; ++i) {
        up(i, l) = u(tree.perm(i), l);
        vp(i, l) = v(tree.perm(i), l);
      }
    const rk::TruncationParams tp = target.options().truncation();
    const index_t nt = target.num_tiles();
    for (index_t i = 0; i < nt; ++i) {
      for (index_t j = 0; j < nt; ++j) {
        tile::Tile<T>& t = target.desc().tile(i, j);
        const la::ConstMatrixView<T> ub(
            up.block(target.desc().row_offset(i), 0, t.m, k));
        const la::ConstMatrixView<T> vb(
            vp.block(target.desc().col_offset(j), 0, t.n, k));
        if (t.format == tile::TileFormat::Full) {
          la::gemm(la::Op::NoTrans, la::Op::ConjTrans, T{1}, ub, vb, T{1},
                   t.full.view());
        } else {
          hmat::add_rk_to(*t.h, T{1}, ub, vb, tp);
          hmat::flush_pending(*t.h, tp);
        }
      }
    }
  }

  /// Rebuild `src` (tiles owned by some other engine) on the serving
  /// engine: fresh skeleton + payload moves. Needed because runtime data
  /// handles are registered per engine.
  core::TileHMatrix<T> re_home(core::TileHMatrix<T>&& src) {
    core::TileHMatrix<T> dst = core::TileHMatrix<T>::skeleton(
        engine_, src.clustering(), src.options());
    const index_t nt = dst.num_tiles();
    for (index_t i = 0; i < nt; ++i) {
      for (index_t j = 0; j < nt; ++j) {
        tile::Tile<T>& s = src.desc().tile(i, j);
        tile::Tile<T>& d = dst.desc().tile(i, j);
        d.format = s.format;
        d.full = std::move(s.full);
        d.h = std::move(s.h);
      }
    }
    return dst;
  }

  /// Fold + refactorize on the serving engine; caller holds mu_.
  void rebase_locked() {
    fold_into(op_, delta_.u().cview(), delta_.v().cview());
    factored_ = refactor(engine_, op_);
    delta_.set_zero();
    prepared_ = false;
    cap_ill_conditioned_ = false;
    cap_info_ = 0;
    lifecycle_counters().bump(lifecycle_counters().woodbury_rebases);
  }

  rt::Engine& engine_;
  Options opts_;
  rt::GraphCache cache_;  ///< factorization and solve graphs
  rk::TruncationParams delta_tp_;

  std::mutex mu_;  // guards everything below (op_/factored_ swaps included)
  core::TileHMatrix<T> op_;  ///< assembled A (+ folded deltas), unfactored
  std::unique_ptr<core::TileHMatrix<T>> factored_;
  rk::RkMatrix<T> delta_;  ///< pending U V^H, original ordering
  la::Matrix<T> y_;        ///< A^{-1} U for the current delta
  la::Matrix<T> cap_;      ///< LU of I + V^H A^{-1} U
  std::vector<index_t> cap_ipiv_;
  int cap_info_ = 0;
  bool cap_ill_conditioned_ = false;
  bool prepared_ = false;
  bool rebase_running_ = false;
  std::condition_variable rebase_cv_;  ///< signaled when a rebase swaps in
  std::thread rebase_thread_;          ///< guarded by mu_; joined unlocked
};

}  // namespace hcham::lifecycle
