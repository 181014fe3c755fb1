// Fixed-size worker pool behind the service's job scheduler.
//
// The pool is deliberately small: a work queue, futures for results, and a
// cooperative CancellationToken that solver backends poll (see
// Session::set_interrupt). Workers never share mutable analysis state — each
// job builds its own FormulaBuilder/Session and solves serially — so the pool
// itself is the only synchronization point.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace scada::util {

/// Cooperative cancellation: the canceller flips the flag, the worker polls
/// it (directly or through CdclSolver's interrupt hook) and abandons its
/// task. Cancellation is advisory — a cancelled task may still complete.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// The raw flag, for Session::set_interrupt / CdclSolver::set_interrupt.
  [[nodiscard]] const std::atomic<bool>* flag() const noexcept { return &cancelled_; }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A fixed set of worker threads draining one FIFO task queue. Tasks are
/// arbitrary callables; submit() returns a std::future that delivers the
/// result or rethrows the task's exception.
class ThreadPool {
 public:
  /// `threads` of 0 means std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace scada::util
