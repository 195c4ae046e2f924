#ifndef DBG4ETH_COMMON_THREAD_POOL_H_
#define DBG4ETH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dbg4eth {

/// \brief Fixed-size worker pool over a bounded MPMC task queue.
///
/// The shared compute substrate of the library: the trainers fan instances
/// of a batch out over it (see ParallelFor in common/parallel_for.h),
/// dataset assembly materializes subgraph instances on it, and the HTTP
/// server runs route handlers on one. Scoring requests do not pass
/// through it: serve::InferenceService runs its own workers, which pop
/// the admission queue directly.
///
/// `Submit` blocks while the queue is at capacity (backpressure toward the
/// producer), `TrySubmit` fails fast instead. Tasks that throw are caught
/// in the worker loop — an exception never kills a worker thread; it is
/// counted in `exceptions_caught()` and the worker moves on. `Shutdown`
/// drains every task already accepted, then joins the workers; it is
/// idempotent and also runs from the destructor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1) over a queue holding at most
  /// `queue_capacity` pending tasks (minimum 1).
  explicit ThreadPool(int num_threads, size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task, blocking while the queue is full. Returns false (and
  /// drops the task) once Shutdown has begun.
  bool Submit(std::function<void()> task);

  /// Non-blocking Submit: false when the queue is full or shut down.
  bool TrySubmit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued, joins workers.
  void Shutdown();

  int num_threads() const { return num_threads_; }
  size_t queue_capacity() const { return queue_capacity_; }
  /// Tasks that finished (normally or by throwing).
  uint64_t tasks_executed() const { return tasks_executed_.load(); }
  /// Tasks whose body threw; the exception was swallowed by the worker.
  uint64_t exceptions_caught() const { return exceptions_caught_.load(); }

 private:
  void WorkerLoop();

  const size_t queue_capacity_;
  int num_threads_ = 0;
  std::mutex shutdown_mu_;  ///< Serializes Shutdown callers.
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> exceptions_caught_{0};
};

/// Resolves a thread-count knob: values >= 1 pass through, 0 (or negative)
/// means "one per hardware thread".
int ResolveNumThreads(int requested);

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_THREAD_POOL_H_
