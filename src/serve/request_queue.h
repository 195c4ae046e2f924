#ifndef DBG4ETH_SERVE_REQUEST_QUEUE_H_
#define DBG4ETH_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Micro-batching parameters.
struct RequestQueueConfig {
  /// Dispatch as soon as this many requests have accumulated...
  int max_batch = 16;
  /// ...or once this long has passed since the batch started forming,
  /// whichever comes first.
  int64_t max_wait_us = 2000;
  /// Bound on queued (not yet popped) requests; TryPush reports kFull
  /// beyond it.
  size_t capacity = 4096;
};

/// \brief Bounded MPMC request queue with micro-batching on the pop side.
///
/// Producers `TryPush` single requests; the dispatcher `PopBatch`es up to
/// `max_batch` of them, waiting at most `max_wait_us` from the moment the
/// first request of the forming batch is visible — so a full batch
/// dispatches immediately and a lone request dispatches after the wait
/// bound, trading a little latency for amortized dispatch.
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

  /// Blocks until a batch is ready (first-request age >= max_wait_us or
  /// max_batch requests available), fills `out` with 1..max_batch requests
  /// and returns true. Returns false only when the queue is closed and
  /// fully drained.
  bool PopBatch(std::vector<ScoreRequest>* out);

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
