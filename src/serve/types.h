#ifndef DBG4ETH_SERVE_TYPES_H_
#define DBG4ETH_SERVE_TYPES_H_

#include <chrono>
#include <functional>
#include <string>

#include "common/status.h"
#include "eth/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Outcome of one account-scoring request.
struct ScoreResult {
  eth::AccountId address = -1;
  /// Ledger height (transaction count) the score was computed at.
  uint64_t ledger_height = 0;
  /// P(target class) from the loaded Dbg4Eth model.
  double probability = 0.0;
  /// True when the score was served from the result cache without
  /// materializing the subgraph or running the forward pass.
  bool cache_hit = false;
  /// True when the score was served in degraded mode from a cache entry
  /// computed at an older ledger height (reported in `ledger_height`)
  /// because the cold path was failing or overloaded.
  bool stale = false;
  /// Cold-path attempts beyond the first (transient failures retried).
  int retries = 0;
  /// Checkpoint generation of the model that produced the score (0 until
  /// the first hot-swap installs a generation — the construction-time
  /// model has no checkpoint lineage). Running passes finish on the model
  /// they started with, so after a swap a short tail of results may still
  /// carry the previous generation.
  uint64_t model_generation = 0;
  /// End-to-end latency (submit -> resolved), microseconds.
  double latency_us = 0.0;
  /// Correlation id of the request that produced this result (W3C trace
  /// id: 32 lowercase hex chars). Empty only when the caller passed no
  /// trace id to ScoreAsync. Stamped on retained span trees and
  /// histogram exemplars, and echoed as `x-trace-id` on the wire.
  std::string trace_id;
  /// Non-OK when the address cannot be scored: unknown account or
  /// degenerate subgraph (kNotFound / kFailedPrecondition), deadline
  /// expiry (kDeadlineExceeded), load shed at admission
  /// (kResourceExhausted), cold path down past the retry budget
  /// (kUnavailable), or service shut down (kFailedPrecondition).
  Status status = Status::OK();

  bool ok() const { return status.ok(); }
};

/// \brief The serving layer's canonical Status -> HTTP status mapping,
/// used by the HTTP front end (src/net) so wire semantics stay defined
/// next to the Status semantics they mirror:
///   kDeadlineExceeded  -> 504 (the request's deadline passed)
///   kResourceExhausted -> 429 (shed at admission; retry with backoff)
///   kUnavailable       -> 503 (cold path down past the retry budget)
///   kNotFound          -> 404 (unknown address)
///   kInvalidArgument   -> 400
///   kFailedPrecondition-> 422 (degenerate subgraph / not servable)
/// Everything else is an internal failure (500).
inline int SuggestedHttpStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kFailedPrecondition:
      return 422;
    default:
      return 500;
  }
}

/// Completion of one scoring request; receives its ScoreResult exactly once.
using ScoreCallback = std::function<void(ScoreResult)>;

/// \brief One in-flight scoring request as it moves from ScoreAsync to a
/// pool worker.
struct ScoreRequest {
  eth::AccountId address = -1;
  uint64_t ledger_height = 0;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Absolute deadline; only meaningful when `has_deadline` is set. An
  /// expired request resolves kDeadlineExceeded without a forward pass
  /// (checked at pick-up and again before each scoring attempt).
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
  /// Correlation id carried from admission through the queue into the
  /// worker's trace context (see obs::ScopedTraceContext).
  std::string trace_id;
  /// Called exactly once with the outcome, after it is booked in
  /// ServerStats: inline on the ScoreAsync caller's thread when admission
  /// decides it (hit, shed, stale, shut down), else on the worker thread
  /// that resolves the request.
  ScoreCallback done;

  bool expired(std::chrono::steady_clock::time_point now) const {
    return has_deadline && now >= deadline;
  }
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_TYPES_H_
