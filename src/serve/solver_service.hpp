// Concurrent solver service: factor once, solve many.
//
// A Session owns the assembled Tile-H operator and its factors together
// with a private task engine, so the (expensive) assembly+factorization is
// amortized over an arbitrary stream of solves. SolverService puts a
// thread-safe bounded queue in front of a Session: concurrent client
// threads submit right-hand sides and get std::futures back; a single
// batching thread coalesces whatever is pending (plus late arrivals within
// a batching window) into ONE multi-RHS panel solve on the task engine, so
// the solve-phase task graph sees all the concurrency the clients offer.
// Backpressure (queue-full), per-request deadlines, and solver errors are
// all reported through the future as typed replies — a submitted request
// always gets exactly one reply.
#pragma once

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/refinement.hpp"
#include "core/tile_h.hpp"
#include "lifecycle/factor_store.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"

namespace hcham::serve {

enum class SolveStatus {
  Ok,
  Timeout,       ///< deadline expired before a batch picked the request up
  Rejected,      ///< backpressure: bounded queue was full
  ShuttingDown,  ///< service stopped before the request could be queued
  Failed,        ///< solver threw; message in SolveReply::error
};

inline const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::Ok: return "ok";
    case SolveStatus::Timeout: return "timeout";
    case SolveStatus::Rejected: return "rejected";
    case SolveStatus::ShuttingDown: return "shutting_down";
    case SolveStatus::Failed: return "failed";
  }
  return "?";
}

template <typename T>
struct SolveReply {
  SolveStatus status = SolveStatus::Failed;
  la::Matrix<T> x;            ///< solution columns (empty unless Ok)
  double residual = 0.0;      ///< max relative residual over this request's columns
  int refine_iterations = 0;
  double latency_s = 0.0;     ///< submit -> reply wall time
  index_t batch_cols = 0;     ///< total columns of the batch that served this
  std::string error;          ///< set when status == Failed

  bool ok() const { return status == SolveStatus::Ok; }
};

struct SessionOptions {
  int workers = 1;
  rt::SchedulerPolicy policy = rt::SchedulerPolicy::Priority;
  bool cholesky = false;
  int refine_iters = 0;       ///< 0: plain solve, no residual reporting
  /// Refinement convergence target; <= 0 lets core::solve_refined derive
  /// one scaled to eps(real_t<T>) and the operator norm (the old fixed
  /// 1e-12 default was unreachable for T = float and burned max_iters
  /// sweeps every solve).
  double target_residual = 0.0;
  /// Graph cache the solve task graphs are captured into and replayed
  /// from (DESIGN.md section 10), so repeated solves against the same
  /// structure skip STF dependency inference. Null means the session's own
  /// cache; point it at a longer-lived one to share captures across
  /// sessions. HCHAM_REPLAY_DISABLE=1 runs every epoch live.
  rt::GraphCache* graph_cache = nullptr;
  /// When non-empty, build() persists the freshly computed factors here
  /// (lifecycle/factor_store.hpp) so later processes can Session::restore()
  /// instead of refactorizing.
  std::string save_factors_to;
};

/// Assembled operator + factors + private engine. Factor once, solve many;
/// solve_now is NOT thread-safe (the service serializes it on its batching
/// thread — direct users must do their own serialization).
template <typename T>
class Session {
 public:
  /// Assemble the kernel over `points`, keep an unfactorized copy when
  /// refinement is requested, then factorize. Blocks until ready.
  template <typename Gen>
  static Session build(std::vector<cluster::Point3> points, const Gen& gen,
                       const core::TileHOptions& hopts,
                       const SessionOptions& opts) {
    Session s(opts);
    s.factored_ = std::make_unique<core::TileHMatrix<T>>(
        core::TileHMatrix<T>::build(*s.engine_, points, gen, hopts));
    if (opts.refine_iters > 0) {
      s.op_ = std::make_unique<core::TileHMatrix<T>>(
          core::TileHMatrix<T>::build(*s.engine_, std::move(points), gen,
                                      hopts));
    }
    // A session factorizes once, so the factorization runs live without
    // capture; only the solve graphs are cached.
    if (opts.cholesky) {
      s.factored_->factorize_cholesky(*s.engine_, nullptr);
    } else {
      s.factored_->factorize(*s.engine_, nullptr);
    }
    if (!opts.save_factors_to.empty()) s.save_factors(opts.save_factors_to);
    return s;
  }

  /// Cold-start from factors previously saved with save_factors():
  /// mmap + validate + tile fill, no assembly and no factorization. The
  /// restored session serves plain (non-refined) solves; `opts` supplies
  /// the engine shape and cache knobs, while the factor kind (LU vs
  /// Cholesky) comes from the file. Throws hcham::Error on any validation
  /// failure, leaving no partially-constructed session behind.
  static Session restore(const std::string& path, SessionOptions opts) {
    opts.refine_iters = 0;
    Session s(opts);
    lifecycle::LoadedFactors<T> lf =
        lifecycle::load_factors<T>(*s.engine_, path);
    s.opts_.cholesky = lf.kind == lifecycle::FactorKind::Cholesky;
    s.factored_ =
        std::make_unique<core::TileHMatrix<T>>(std::move(lf.matrix));
    return s;
  }

  /// Persist the factors for a later restore().
  void save_factors(const std::string& path) const {
    lifecycle::save_factors(*factored_,
                            opts_.cholesky ? lifecycle::FactorKind::Cholesky
                                           : lifecycle::FactorKind::Lu,
                            path);
  }

  /// Resident payload bytes across the held operators (factored + optional
  /// refinement operator) — the SessionCache accounting unit. Engine and queue overheads are deliberately excluded: they do
  /// not scale with the operator.
  std::uint64_t memory_bytes() const {
    std::uint64_t b =
        sizeof(T) * static_cast<std::uint64_t>(factored_->stored_elements());
    if (op_) b += sizeof(T) * static_cast<std::uint64_t>(op_->stored_elements());
    return b;
  }

  /// Solve A X = B in place on the session engine; refines when the
  /// session was built with refine_iters > 0.
  core::RefinementResult solve_now(la::MatrixView<T> b) {
    if (op_) {
      return core::solve_refined(*factored_, *op_, *engine_, b,
                                 opts_.refine_iters, opts_.target_residual,
                                 opts_.cholesky, cache());
    }
    if (opts_.cholesky) {
      factored_->solve_cholesky(*engine_, b, cache());
    } else {
      factored_->solve(*engine_, b, cache());
    }
    return core::RefinementResult{};
  }

  index_t size() const { return factored_->size(); }
  rt::Engine& engine() { return *engine_; }
  const SessionOptions& options() const { return opts_; }

  /// Graph cache this session solves through.
  rt::GraphCache* cache() {
    return opts_.graph_cache != nullptr ? opts_.graph_cache : own_cache_.get();
  }

 private:
  explicit Session(const SessionOptions& opts)
      : opts_(opts),
        engine_(std::make_unique<rt::Engine>(rt::Engine::Options{
            .num_workers = opts.workers, .policy = opts.policy})) {}

  SessionOptions opts_;
  std::unique_ptr<rt::GraphCache> own_cache_ =
      std::make_unique<rt::GraphCache>();
  std::unique_ptr<rt::Engine> engine_;
  std::unique_ptr<core::TileHMatrix<T>> factored_;
  std::unique_ptr<core::TileHMatrix<T>> op_;  ///< unfactorized, for refinement
};

struct ServiceOptions {
  index_t queue_capacity = 64;
  index_t max_batch_cols = 32;  ///< column budget per multi-RHS solve
  std::chrono::microseconds batch_window{200};   ///< linger for coalescing
  std::chrono::microseconds enqueue_timeout{0};  ///< 0: fail fast on full
  /// Test hook: called once per batch right before the solve (lets tests
  /// inject solver faults deterministically).
  std::function<void()> inject_fault;
};

template <typename T>
class SolverService {
 public:
  using Clock = std::chrono::steady_clock;

  SolverService(Session<T>& session, ServiceOptions opts = {})
      : session_(session),
        opts_(std::move(opts)),
        queue_(opts_.queue_capacity),
        thread_([this] { run(); }) {}

  ~SolverService() { stop(); }

  /// Graceful shutdown: drains everything already queued, then joins the
  /// batching thread. Idempotent.
  void stop() {
    queue_.close();
    if (thread_.joinable()) thread_.join();
  }

  /// Submit a right-hand-side block (any number of columns). Returns a
  /// future that ALWAYS receives exactly one reply: Ok with the solution,
  /// or Rejected/ShuttingDown immediately on backpressure/shutdown, or
  /// Timeout if `deadline` (0 = none) elapses before a batch starts.
  std::future<SolveReply<T>> submit(
      la::Matrix<T> rhs,
      std::chrono::microseconds deadline = std::chrono::microseconds{0}) {
    HCHAM_CHECK(rhs.rows() == session_.size() && rhs.cols() >= 1);
    stats_.on_submit();
    Request r;
    r.rhs = std::move(rhs);
    r.enqueued = Clock::now();
    r.deadline = deadline.count() > 0 ? r.enqueued + deadline
                                      : Clock::time_point::max();
    std::future<SolveReply<T>> fut = r.promise.get_future();
    index_t depth = 0;
    const PushResult pr = queue_.push(r, opts_.enqueue_timeout, &depth);
    // Sample the depth gauge at the push/reject points too — the queue is
    // at its fullest right here, so a gauge updated only at batch pops
    // systematically under-reports the peak. The depth comes from the push
    // itself: a size() read here could follow the batching thread's pop.
    stats_.queue_depth(depth);
    if (pr == PushResult::Full) {
      stats_.on_reject();
      SolveReply<T> rep;
      rep.status = SolveStatus::Rejected;
      rep.error = "queue full";
      reply(r, std::move(rep));
    } else if (pr == PushResult::Closed) {
      SolveReply<T> rep;
      rep.status = SolveStatus::ShuttingDown;
      rep.error = "service stopped";
      reply(r, std::move(rep));
    }
    return fut;
  }

  StatsSnapshot stats() const {
    // The session engine's capture/replay tallies are per-session graph
    // activity (each Session owns its engine). Recording them into the hub
    // before snapshotting keeps plain stats_.snapshot() consistent with
    // this accessor (they used to be patched on here only).
    const rt::Engine::ReplayStats rs = session_.engine().replay_stats();
    stats_.record_graph(rs.captured, rs.replayed);
    return stats_.snapshot();
  }
  std::string stats_json() const { return to_json(stats()); }
  index_t queue_size() const { return queue_.size(); }

 private:
  struct Request {
    la::Matrix<T> rhs;
    std::promise<SolveReply<T>> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;
  };

  void run() {
    for (;;) {
      std::deque<Request> batch = queue_.pop_batch(
          opts_.max_batch_cols, opts_.batch_window,
          [](const Request& r) { return r.rhs.cols(); });
      if (batch.empty()) return;  // closed and drained
      stats_.queue_depth(queue_.size());
      serve_batch(batch);
    }
  }

  void serve_batch(std::deque<Request>& batch) {
    const auto now = Clock::now();
    std::vector<Request*> live;
    index_t cols = 0;
    for (Request& r : batch) {
      if (r.deadline <= now) {
        stats_.on_timeout();
        SolveReply<T> rep;
        rep.status = SolveStatus::Timeout;
        rep.error = "deadline expired in queue";
        reply(r, std::move(rep));
      } else {
        live.push_back(&r);
        cols += r.rhs.cols();
      }
    }
    if (live.empty()) return;

    // Gather every live request's columns into one multi-RHS panel.
    const index_t n = session_.size();
    la::Matrix<T> panel(n, cols);
    index_t at = 0;
    for (Request* r : live)
      for (index_t c = 0; c < r->rhs.cols(); ++c)
        la::copy_column(r->rhs.cview(), c, panel.view(), at++);

    core::RefinementResult rr;
    try {
      if (opts_.inject_fault) opts_.inject_fault();
      rr = session_.solve_now(panel.view());
    } catch (const std::exception& e) {
      for (Request* r : live) {
        stats_.on_failed();
        SolveReply<T> rep;
        rep.status = SolveStatus::Failed;
        rep.error = e.what();
        rep.batch_cols = cols;
        reply(*r, std::move(rep));
      }
      return;
    }
    stats_.on_batch(cols);

    // Scatter the solution back, one reply per request.
    at = 0;
    for (Request* r : live) {
      SolveReply<T> rep;
      rep.status = SolveStatus::Ok;
      rep.batch_cols = cols;
      rep.refine_iterations = rr.iterations;
      rep.x = la::Matrix<T>(n, r->rhs.cols());
      for (index_t c = 0; c < r->rhs.cols(); ++c, ++at) {
        la::copy_column(panel.cview(), at, rep.x.view(), c);
        if (at < static_cast<index_t>(rr.column_residuals.size()))
          rep.residual = std::max(
              rep.residual, rr.column_residuals[static_cast<std::size_t>(at)]);
      }
      stats_.on_completed(
          std::chrono::duration<double>(Clock::now() - r->enqueued).count());
      reply(*r, std::move(rep));
    }
  }

  void reply(Request& r, SolveReply<T> rep) {
    rep.latency_s =
        std::chrono::duration<double>(Clock::now() - r.enqueued).count();
    r.promise.set_value(std::move(rep));
  }

  Session<T>& session_;
  ServiceOptions opts_;
  // mutable: stats() is logically const but folds engine replay tallies
  // into the (internally synchronized) hub before snapshotting.
  mutable ServiceStats stats_;
  BoundedRequestQueue<Request> queue_;
  std::thread thread_;
};

}  // namespace hcham::serve
