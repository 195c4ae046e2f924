#include "serve/request_queue.h"

#include <utility>

#include "common/logging.h"

namespace dbg4eth {
namespace serve {

RequestQueue::RequestQueue(const RequestQueueConfig& config)
    : config_(config) {
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

bool RequestQueue::Pop(ScoreRequest* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // Closed and drained.
  *out = std::move(queue_.front());
  queue_.pop_front();
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
