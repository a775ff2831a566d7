#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

namespace profisched::engine {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::stop() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
}

bool ThreadPool::stopped() const {
  std::lock_guard lock(mu_);
  return stop_;
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(mu_);
    // The worker loop exits once stop_ is set and the queue drains, so a job
    // accepted here would never run. The old behaviour — enqueue and silently
    // drop — turned shutdown races into vanished work; fail loudly instead.
    if (stop_) throw std::logic_error("ThreadPool: submit after stop()");
    queue_.push_back(std::move(job));
    queue_hwm_.update_max(queue_.size());
  }
  tasks_submitted_.add(1);
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mu_);
      cv_job_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    // Counted at dequeue, not completion: a parallel_for caller is released
    // from inside its last job (before the post-job bookkeeping here runs),
    // so completion-side counts could be snapshotted one short.
    tasks_executed_.add(1);
    const std::int64_t t0 = obs::enabled() ? obs::now_ns() : -1;
    job();
    if (t0 >= 0) task_latency_.record(static_cast<std::uint64_t>(obs::now_ns() - t0));
    {
      std::lock_guard lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, unsigned)>& fn) {
  if (n == 0) return;

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> done_workers{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto shared = std::make_shared<Shared>();
  const auto slots = static_cast<unsigned>(std::min<std::size_t>(size(), n));

  for (unsigned slot = 0; slot < slots; ++slot) {
    submit([shared, slot, n, &fn] {
      for (;;) {
        const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i, slot);
      }
      {
        std::lock_guard lock(shared->mu);
        shared->done_workers.fetch_add(1, std::memory_order_release);
      }
      shared->cv.notify_one();
    });
  }

  // Wait for this call's own slots (not wait_idle: other callers may share
  // the pool).
  std::unique_lock lock(shared->mu);
  shared->cv.wait(lock,
                  [&] { return shared->done_workers.load(std::memory_order_acquire) == slots; });
}

unsigned ThreadPool::default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

}  // namespace profisched::engine
