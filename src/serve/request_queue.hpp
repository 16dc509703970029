// Thread-safe bounded MPSC queue for solve requests.
//
// Clients push from arbitrary threads; the service's batching thread pops
// groups of requests in one call (pop_batch) so a whole batch is claimed
// under a single lock acquisition. Backpressure is explicit: push either
// fails fast or waits up to a timeout for space, and NEVER consumes the
// caller's item on failure — the caller keeps ownership (and the promise
// inside it) and can reply with a rejection instead of breaking the future.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/config.hpp"

namespace hcham::serve {

enum class PushResult {
  Ok,      ///< item enqueued
  Full,    ///< queue at capacity for the whole timeout (backpressure)
  Closed,  ///< queue closed; service is shutting down
};

template <typename T>
class BoundedRequestQueue {
 public:
  explicit BoundedRequestQueue(index_t capacity) : capacity_(capacity) {
    HCHAM_CHECK(capacity >= 1);
  }

  /// Try to enqueue `item`. Moves from `item` ONLY on PushResult::Ok; on
  /// Full/Closed the caller still owns it. With timeout 0 this fails
  /// fast; otherwise it waits up to `timeout` for space. `depth`, when
  /// given, receives the queue depth this push left behind, read under the
  /// queue's own lock (a later size() may already see a consumer's pop).
  PushResult push(T& item,
                  std::chrono::microseconds timeout = std::chrono::microseconds{0},
                  index_t* depth = nullptr) {
    std::unique_lock<std::mutex> lk(mu_);
    if (timeout.count() > 0) {
      not_full_.wait_for(lk, timeout, [&] {
        return closed_ || static_cast<index_t>(items_.size()) < capacity_;
      });
    }
    PushResult result = PushResult::Ok;
    if (closed_) {
      result = PushResult::Closed;
    } else if (static_cast<index_t>(items_.size()) >= capacity_) {
      result = PushResult::Full;
    } else {
      items_.push_back(std::move(item));
    }
    if (depth != nullptr) *depth = static_cast<index_t>(items_.size());
    if (result != PushResult::Ok) return result;
    lk.unlock();
    not_empty_.notify_one();
    return PushResult::Ok;
  }

  /// Pop a batch: blocks until at least one item is available (or the
  /// queue is closed AND drained, in which case the result is empty).
  /// After the first item, lingers up to `window` for more work and keeps
  /// taking items while the accumulated cost stays within `max_cost`.
  /// The first item always ships even if it alone exceeds the budget.
  template <typename CostFn>
  std::deque<T> pop_batch(index_t max_cost, std::chrono::microseconds window,
                          CostFn cost) {
    std::deque<T> batch;
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return batch;  // closed and drained
    index_t used = 0;
    auto take_while_affordable = [&] {
      while (!items_.empty()) {
        const index_t c = cost(items_.front());
        if (!batch.empty() && used + c > max_cost) break;
        used += c;
        batch.push_back(std::move(items_.front()));
        items_.pop_front();
      }
    };
    take_while_affordable();
    if (window.count() > 0 && used < max_cost && !closed_) {
      // Batching window: linger for late arrivals to coalesce into this
      // solve. Re-check after every wakeup until the deadline.
      const auto deadline = std::chrono::steady_clock::now() + window;
      while (used < max_cost) {
        if (not_empty_.wait_until(lk, deadline, [&] {
              return closed_ || !items_.empty();
            })) {
          take_while_affordable();
          if (closed_) break;
          if (!items_.empty()) break;  // next item over budget
        } else {
          break;  // window elapsed
        }
      }
    }
    lk.unlock();
    not_full_.notify_all();
    return batch;
  }

  /// Close the queue: pending items stay poppable (graceful drain), new
  /// pushes get PushResult::Closed, blocked poppers wake up.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  index_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<index_t>(items_.size());
  }

  index_t capacity() const { return capacity_; }

 private:
  const index_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace hcham::serve
