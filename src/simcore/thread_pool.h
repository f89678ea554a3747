// Fixed-size thread pool for running independent simulations in parallel.
//
// Individual simulations are single-threaded and deterministic; parameter
// sweeps (one simulation per scheduler x online-rate x seed point) are
// embarrassingly parallel, so the bench harness (bench::Sweep) fans sweeps
// out over this pool. Tasks must not share mutable state: the
// pool's own queue is the only cross-thread state here, guarded by an
// annotated sim::Mutex so clang's -Wthread-safety proves every access
// (asman-lint's `thread-safety` rule checks the callers' side — no
// Hypervisor/Simulator/RNG reachable from more than one worker).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/inline_function.h"
#include "simcore/mutex.h"

namespace asman::sim {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Submit a task; the returned future yields its result (or rethrows).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> fut = task.get_future();
    {
      MutexLock lk(mu_);
      queue_.emplace_back([task = std::move(task)]() mutable { task(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for all of them.
  /// Exceptions from tasks are rethrown (the first one encountered).
  template <typename Fn>
  void parallel_for(std::size_t n, const Fn& fn) {
    std::vector<std::future<void>> futs;
    futs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      futs.push_back(submit([&fn, i] { fn(i); }));
    std::exception_ptr first;
    for (auto& f : futs) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<InlineFunction<void()>> queue_ ASMAN_GUARDED_BY(mu_);
  bool stop_ ASMAN_GUARDED_BY(mu_){false};
};

}  // namespace asman::sim
