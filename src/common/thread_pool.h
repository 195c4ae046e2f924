#ifndef DBG4ETH_COMMON_THREAD_POOL_H_
#define DBG4ETH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dbg4eth {

/// \brief Fixed-size worker pool over a bounded MPMC task queue.
///
/// The one worker pool of the library: serve::InferenceService runs each
/// cold scoring request as a task on its own pool, the HTTP server runs
/// route handlers on one, and the trainers fan instances of a batch out
/// over one (see ParallelFor in common/parallel_for.h).
///
/// `TrySubmit` never blocks: it fails fast when the queue is at capacity
/// or the pool is shut down, so the producer decides what a refusal means.
/// Tasks run in submission order as workers free up. A task that throws is
/// caught and logged in the worker loop — an exception never kills a
/// worker thread. `Shutdown` runs every task already accepted, then joins
/// the workers; it is idempotent and also runs from the destructor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1) over a queue holding at most
  /// `queue_capacity` pending tasks (minimum 1).
  explicit ThreadPool(int num_threads, size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; false (and the task is dropped) when the queue is
  /// full or Shutdown has begun.
  bool TrySubmit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued, joins workers.
  void Shutdown();

  int num_threads() const { return num_threads_; }
  /// Tasks accepted but not yet picked up by a worker.
  size_t pending() const;

 private:
  void WorkerLoop();

  const size_t queue_capacity_;
  int num_threads_ = 0;
  std::mutex shutdown_mu_;  ///< Serializes Shutdown callers.
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Resolves a thread-count knob: values >= 1 pass through, 0 (or negative)
/// means "one per hardware thread".
int ResolveNumThreads(int requested);

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_THREAD_POOL_H_
