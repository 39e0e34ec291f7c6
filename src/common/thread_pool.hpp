#pragma once
// Persistent worker-thread pool shared by the evaluation engine and the
// pre-processing stages (docs/threading.md).
//
// Two entry points:
//   submit(task)        — enqueue one task, returns a future for completion
//                         (exceptions travel through the future).
//   parallel_for(n, f)  — run f(0..n-1) across the workers AND the calling
//                         thread; indices are claimed from a shared atomic
//                         counter, so per-index overhead is one fetch_add,
//                         not one queue round-trip. Blocks until all indices
//                         finished; the first exception thrown by any index
//                         is rethrown in the caller.
//
// The caller always participates in parallel_for, so a pool with zero
// workers degrades to plain serial execution (and nested/concurrent
// parallel_for calls from several threads — e.g. minimpi ranks — can never
// deadlock: every caller makes progress on its own job even when all
// workers are busy elsewhere).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cstuner {

class ThreadPool {
 public:
  /// Spawns `workers` persistent threads. 0 is valid: every parallel_for
  /// then runs inline on the caller (the deterministic serial reference).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Enqueues one task; the returned future delivers completion and any
  /// exception the task threw.
  std::future<void> submit(std::function<void()> task);

  /// Runs body(i) for every i in [0, n). The caller claims indices alongside
  /// the workers; returns when all n indices completed. Rethrows the first
  /// exception raised by any body invocation (remaining indices still run,
  /// so sibling results stay complete).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Tasks sitting in the queue right now: submitted closures plus
  /// parallel_for helper jobs no worker has picked up yet. Instantaneous —
  /// an admission controller reads it as a load signal, not an invariant.
  std::size_t queue_depth() const;

  /// Tasks currently executing on pool workers. Caller participation in
  /// parallel_for is not counted (the caller is not a pool resource). A
  /// task leaves the count before its completion becomes visible (its
  /// future is ready, or parallel_for returns), so a caller that has seen
  /// every task complete reads 0.
  std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// High-water marks of queue_depth()/inflight() since construction or the
  /// last reset_peaks(); bench_parallel_scaling reports these per worker
  /// count.
  std::size_t peak_queue_depth() const;
  std::size_t peak_inflight() const {
    return peak_inflight_.load(std::memory_order_relaxed);
  }
  void reset_peaks();

  /// Process-wide shared pool, sized from CSTUNER_THREADS (worker count;
  /// 0 forces serial) or hardware_concurrency - 1, capped at 15 workers.
  /// Created on first use.
  static ThreadPool& global();

 private:
  struct Job;

  /// Claims and runs indices of `job` until none are left. A pool worker
  /// passes its inflight counter, which run_job decrements before the
  /// worker's last index is reported done; the owner passes nullptr.
  static void run_job(Job& job, std::atomic<std::size_t>* inflight);
  void worker_loop();
  /// Records the current queue size into the high-water mark; call with
  /// queue_mutex_ held after pushing.
  void note_queue_depth_locked();

  std::vector<std::thread> threads_;
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::size_t peak_queue_depth_ = 0;  // guarded by queue_mutex_
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> peak_inflight_{0};
};

}  // namespace cstuner
