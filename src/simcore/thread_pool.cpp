#include "simcore/thread_pool.h"

#include <utility>

namespace asman::sim {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc == 0 ? 1 : hc;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    InlineFunction<void()> task;
    {
      MutexLock lk(mu_);
      // Open-coded wait loop (rather than the predicate overload) so the
      // guarded reads of stop_/queue_ stay inside the annotated critical
      // section where -Wthread-safety can see the capability.
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace asman::sim
