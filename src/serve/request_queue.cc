#include "serve/request_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace dbg4eth {
namespace serve {

RequestQueue::RequestQueue(const RequestQueueConfig& config)
    : config_(config) {
  DBG4ETH_CHECK_GE(config.max_batch, 1);
  DBG4ETH_CHECK_GE(config.max_wait_us, 0);
  DBG4ETH_CHECK_GE(config.capacity, 1u);
}

RequestQueue::PushResult RequestQueue::TryPush(ScoreRequest request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (queue_.size() >= config_.capacity) return PushResult::kFull;
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return PushResult::kAccepted;
}

bool RequestQueue::PopBatch(std::vector<ScoreRequest>* out) {
  out->clear();
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // Closed and drained.

  // The batch starts forming now; gather more requests until it is full,
  // the wait bound expires, or the queue closes (then ship what we have).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(config_.max_wait_us);
  not_empty_.wait_until(lock, deadline, [this] {
    return closed_ || static_cast<int>(queue_.size()) >= config_.max_batch;
  });

  const size_t take =
      std::min(queue_.size(), static_cast<size_t>(config_.max_batch));
  out->reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return true;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace serve
}  // namespace dbg4eth
