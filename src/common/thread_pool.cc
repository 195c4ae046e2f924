#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"

namespace dbg4eth {

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : queue_capacity_(std::max<size_t>(1, queue_capacity)) {
  const int n = std::max(1, num_threads);
  num_threads_ = n;
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() >= queue_capacity_) return false;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return true;
}

size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::Shutdown() {
  // Serializes concurrent Shutdown callers; `workers_` is only touched by
  // the constructor and under this lock.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Sleep-only injection point: simulates a hung/slow worker so chaos
    // tests can race shutdown and deadlines against stuck tasks.
    DBG4ETH_FAIL_POINT_APPLY("pool.task");
    // A throwing task must not take its worker down; its failure is
    // logged, since nothing else would report it.
    try {
      task();
    } catch (const std::exception& e) {
      DBG4ETH_LOG(Error) << "thread pool task threw: " << e.what();
    } catch (...) {
      DBG4ETH_LOG(Error) << "thread pool task threw a non-std exception";
    }
  }
}

int ResolveNumThreads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace dbg4eth
