#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace cstuner {

// Shared state of one parallel_for call. Indices are claimed via `next`;
// `done` counts finished bodies so the owner knows when every claimed index
// (including ones run by pool workers) has completed.
struct ThreadPool::Job {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by mutex
};

void ThreadPool::run_job(Job& job, std::atomic<std::size_t>* inflight) {
  std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= job.n && inflight != nullptr) {
    inflight->fetch_sub(1, std::memory_order_relaxed);
  }
  while (i < job.n) {
    try {
      (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.mutex);
      if (!job.error) job.error = std::current_exception();
    }
    const std::size_t next = job.next.fetch_add(1, std::memory_order_relaxed);
    // A helper leaves the inflight count before it reports its last index
    // done: the owner returns once every index is done, and must not see
    // the helper still counted then.
    if (next >= job.n && inflight != nullptr) {
      inflight->fetch_sub(1, std::memory_order_relaxed);
    }
    // acq_rel: the final increment's reader (the waiting owner) must see
    // every body's writes, not just the last one's.
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
      std::lock_guard<std::mutex> lock(job.mutex);
      job.cv.notify_all();
    }
    i = next;
  }
}

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const std::size_t now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t peak = peak_inflight_.load(std::memory_order_relaxed);
    while (now > peak && !peak_inflight_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    task();  // leaves inflight_ itself, before its completion is visible
  }
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

std::size_t ThreadPool::peak_queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return peak_queue_depth_;
}

void ThreadPool::reset_peaks() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    peak_queue_depth_ = 0;
  }
  peak_inflight_.store(inflight_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

void ThreadPool::note_queue_depth_locked() {
  if (queue_.size() > peak_queue_depth_) peak_queue_depth_ = queue_.size();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    // No workers: run inline, the future still carries the result.
    std::packaged_task<void()> inline_task(std::move(task));
    auto future = inline_task.get_future();
    inline_task();
    return future;
  }
  auto promise = std::make_shared<std::promise<void>>();
  auto future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back([this, promise, task = std::move(task)] {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      // Leave the inflight count before the future becomes ready: a caller
      // that has waited on every future must read inflight() == 0.
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      if (error) {
        promise->set_exception(error);
      } else {
        promise->set_value();
      }
    });
    note_queue_depth_locked();
  }
  queue_cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->body = &body;

  // One helper task per worker (capped by n-1: the caller takes indices
  // too). Helpers that arrive after the job drained exit immediately.
  const std::size_t helpers = std::min(worker_count(), n - 1);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.push_back([this, job] { run_job(*job, &inflight_); });
    }
    note_queue_depth_locked();
  }
  queue_cv_.notify_all();

  run_job(*job, nullptr);
  std::unique_lock<std::mutex> lock(job->mutex);
  job->cv.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) >= job->n;
  });
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("CSTUNER_THREADS")) {
      // Clamp so garbage ("abc" -> 0) and negative values (strtoull wraps
      // them to huge numbers) cannot ask for absurd thread counts.
      return std::min<std::size_t>(
          static_cast<std::size_t>(std::strtoull(env, nullptr, 10)), 64);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(
        std::min(15u, hw > 1 ? hw - 1 : 0u));
  }());
  return pool;
}

}  // namespace cstuner
