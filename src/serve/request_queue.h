#ifndef DBG4ETH_SERVE_REQUEST_QUEUE_H_
#define DBG4ETH_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "serve/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Admission queue sizing.
struct RequestQueueConfig {
  /// Bound on queued (not yet popped) requests; TryPush reports kFull
  /// beyond it.
  size_t capacity = 4096;
};

/// \brief Bounded MPMC FIFO of score requests.
///
/// Producers `TryPush` single requests; each serving worker blocks in
/// `Pop` and takes one request per pick-up, so a request waits only
/// while every worker is busy — never for a batching window.
class RequestQueue {
 public:
  explicit RequestQueue(const RequestQueueConfig& config);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Outcome of TryPush.
  enum class PushResult {
    kAccepted,  ///< Enqueued.
    kFull,      ///< Queue at capacity — admission control should shed.
    kClosed,    ///< Queue closed — service shutting down.
  };

  /// Enqueues one request without ever waiting on capacity, so admission
  /// control can shed. On kFull / kClosed the request (and its promise)
  /// is destroyed.
  PushResult TryPush(ScoreRequest request);

  /// Blocks until a request is queued, moves the oldest one into `out`
  /// and returns true. Returns false only when the queue is closed and
  /// fully drained.
  bool Pop(ScoreRequest* out);

  /// Rejects further pushes and wakes every waiter. Requests already
  /// queued remain poppable until drained.
  void Close();

  bool closed() const;
  size_t size() const;
  const RequestQueueConfig& config() const { return config_; }

 private:
  const RequestQueueConfig config_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<ScoreRequest> queue_;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_REQUEST_QUEUE_H_
