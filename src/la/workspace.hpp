// Reusable scratch arena for the dense kernels on the H-arithmetic hot
// path (truncate, qr_thin, svd, blocked-GEMM packing).
//
// A Workspace is a chunked bump allocator: requests are carved from
// 64-byte-aligned chunks that are retained across uses, so steady-state
// kernels allocate nothing. Chunks never move once created, which keeps
// every handed-out pointer valid for the lifetime of its scope. Scopes
// follow strict stack discipline: a WorkspaceScope records the arena mark
// at construction and releases back to it on destruction, so nested kernel
// calls (truncate -> geqrt -> gemm) stack naturally.
//
// Returned memory is UNINITIALIZED (it recycles whatever a previous scope
// wrote there): every consumer must fully overwrite what it reads. This is
// also what keeps multi-worker runs bit-deterministic.
//
// Binding: engine worker threads hold a WorkspaceLease, which checks an
// arena out of a process-wide pool and binds it to the thread
// (tls_workspace()). The pool - rather than a plain thread_local - is what
// preserves reuse across the engine's per-epoch worker threads, and keeps
// concurrently running engines (e.g. serve sessions) on disjoint arenas.
// Off-engine threads have no binding and WorkspaceScope falls back to
// plain local allocations, as before this layer existed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/counters.hpp"
#include "la/view.hpp"

namespace hcham::la {

class Workspace {
 public:
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kMinChunkBytes = std::size_t{1} << 16;

  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  Mark mark() const { return Mark{active_, used_}; }
  void release(Mark m) {
    active_ = m.chunk;
    used_ = m.used;
  }

  /// Bump-allocate `bytes` (64-byte aligned). The pointer stays valid until
  /// the enclosing mark is released; chunks never move.
  void* alloc_bytes(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    while (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      if (used_ + bytes <= c.size) {
        void* p = c.base + used_;
        used_ += bytes;
        arith_counters().bump(arith_counters().ws_hits);
        return p;
      }
      ++active_;
      used_ = 0;
    }
    arith_counters().bump(arith_counters().ws_misses);
    // Geometric chunk growth amortizes the misses of the warm-up phase.
    std::size_t sz = chunks_.empty() ? kMinChunkBytes : 2 * chunks_.back().size;
    if (sz < bytes) sz = bytes;
    chunks_.push_back(make_chunk(sz));
    active_ = chunks_.size() - 1;
    used_ = bytes;
    return chunks_.back().base;
  }

  std::size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> raw;
    unsigned char* base = nullptr;
    std::size_t size = 0;
  };

  static Chunk make_chunk(std::size_t size) {
    Chunk c;
    c.raw.reset(new unsigned char[size + kAlign]);
    const auto p = reinterpret_cast<std::uintptr_t>(c.raw.get());
    c.base = c.raw.get() + ((kAlign - p % kAlign) % kAlign);
    c.size = size;
    // First-touch: fault every page in on the allocating thread, so the
    // kernels that later carve scopes from the chunk never take the page
    // faults themselves.
    std::memset(c.base, 0, size);
    return c;
  }

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunk currently bump-allocated from
  std::size_t used_ = 0;    ///< bytes used in the active chunk
};

namespace detail {

inline Workspace*& tls_workspace_slot() {
  static thread_local Workspace* ws = nullptr;
  return ws;
}

struct WorkspacePool {
  std::mutex mu;
  std::vector<std::unique_ptr<Workspace>> free;  ///< LIFO checkout
};

inline WorkspacePool& workspace_pool() {
  static WorkspacePool pool;
  return pool;
}

}  // namespace detail

/// The arena bound to this thread, or nullptr off-engine.
inline Workspace* tls_workspace() { return detail::tls_workspace_slot(); }

/// RAII checkout of a pooled arena, bound to the current thread for the
/// lease's lifetime. Held by every engine worker loop, including the one
/// a 1-worker epoch runs on the thread that called wait_all().
class WorkspaceLease {
 public:
  WorkspaceLease() {
    auto& pool = detail::workspace_pool();
    {
      std::lock_guard<std::mutex> lk(pool.mu);
      if (!pool.free.empty()) {
        ws_ = std::move(pool.free.back());
        pool.free.pop_back();
      }
    }
    if (!ws_) ws_ = std::make_unique<Workspace>();
    prev_ = detail::tls_workspace_slot();
    detail::tls_workspace_slot() = ws_.get();
  }

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  ~WorkspaceLease() {
    detail::tls_workspace_slot() = prev_;
    auto& pool = detail::workspace_pool();
    std::lock_guard<std::mutex> lk(pool.mu);
    pool.free.push_back(std::move(ws_));
  }

 private:
  std::unique_ptr<Workspace> ws_;
  Workspace* prev_ = nullptr;
};

/// Stack-scoped view over the thread's arena. alloc/matrix return
/// UNINITIALIZED storage valid until the scope is destroyed. When the
/// thread has no bound arena, falls back to owning heap allocations with
/// the same lifetime.
class WorkspaceScope {
 public:
  WorkspaceScope() : ws_(tls_workspace()) {
    if (ws_ != nullptr) mark_ = ws_->mark();
  }
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;
  ~WorkspaceScope() {
    if (ws_ != nullptr) ws_->release(mark_);
  }

  template <typename T>
  T* alloc(index_t n) {
    HCHAM_DCHECK(n >= 0);
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    if (ws_ != nullptr) return static_cast<T*>(ws_->alloc_bytes(bytes));
    local_.emplace_back(new unsigned char[bytes + Workspace::kAlign]);
    const auto p = reinterpret_cast<std::uintptr_t>(local_.back().get());
    return reinterpret_cast<T*>(
        local_.back().get() +
        ((Workspace::kAlign - p % Workspace::kAlign) % Workspace::kAlign));
  }

  /// m x n column-major scratch matrix (ld == m), uninitialized.
  template <typename T>
  MatrixView<T> matrix(index_t m, index_t n) {
    return MatrixView<T>(alloc<T>(m * n), m, n, m);
  }

 private:
  Workspace* ws_ = nullptr;
  Workspace::Mark mark_;
  std::vector<std::unique_ptr<unsigned char[]>> local_;
};

}  // namespace hcham::la
