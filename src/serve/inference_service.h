#ifndef DBG4ETH_SERVE_INFERENCE_SERVICE_H_
#define DBG4ETH_SERVE_INFERENCE_SERVICE_H_

#include <atomic>
#include <future>
#include <istream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger_base.h"
#include "graph/sampling.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "serve/server_stats.h"
#include "serve/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Knobs of the serving layer.
struct InferenceServiceConfig {
  /// Worker threads; clamped at construction to the hardware concurrency
  /// (oversubscribed CPU-bound forwards only add context-switch overhead —
  /// see DESIGN.md "Inference fast path"). 0 = one per hardware thread.
  /// The resolved count is reported in ServerStats::Snapshot::workers.
  int num_workers = 4;
  /// Pending-batch bound of the worker pool (backpressure toward the
  /// dispatcher, which in turn backpressures producers via the queue).
  size_t pool_queue_capacity = 256;
  RequestQueueConfig queue;
  ResultCacheConfig cache;
  /// Subgraph materialization parameters; must match how the model's
  /// training data was sampled for the scores to be meaningful.
  graph::SamplingConfig sampling;
  int num_time_slices = 10;

  // --- resilience knobs (see DESIGN.md "Failure model") ---

  /// Cold-path attempts beyond the first for transient failures
  /// (kUnavailable / kResourceExhausted); 0 disables retry.
  int max_cold_retries = 2;
  /// Backoff before retry attempt r: retry_backoff_us * r (linear),
  /// truncated by the request deadline.
  int64_t retry_backoff_us = 500;
  /// Degraded mode: when the cold path fails transiently past the retry
  /// budget (or a request is about to be shed) answer from the newest
  /// cache entry at an older ledger height, flagged `stale = true`. When
  /// enabled, RefreshLedgerHeight keeps superseded entries around as the
  /// stale corpus instead of dropping them eagerly.
  bool serve_stale = true;
};

/// \brief Concurrent account-scoring service over a trained Dbg4Eth model.
///
/// Request path: `ScoreAsync(address)` first consults the sharded result
/// cache keyed by (address, ledger height) — a hit resolves immediately,
/// skipping both subgraph materialization and the forward pass. Misses are
/// enqueued into the micro-batching RequestQueue; a dispatcher thread pops
/// batches (full batch or max_wait_us, whichever first) and hands each
/// batch to the worker pool. Workers dedupe identical addresses inside the
/// batch, re-check the cache, materialize the account-centred subgraph
/// (eth::MaterializeInstance), normalize it with the model's train-split
/// statistics, run the double-graph forward pass, fill the cache and
/// resolve the promises. Every outcome is booked once, in the service's
/// own metrics registry (ServerStats; see `metrics()`).
///
/// Thread safety: the service holds the model as a
/// `shared_ptr<const Dbg4Eth>` behind a mutex; each worker batch takes one
/// snapshot of that pointer and scores through it — Dbg4Eth::PredictProba /
/// Normalize are const and race-free, so any number of workers score
/// concurrently. `SwapModel` (wired to ModelRegistry's swap callback)
/// RCU-swaps the pointer: batches already dispatched finish on the model
/// they snapshotted, new batches see the new model, and the old model is
/// freed when its last in-flight batch drops its reference. The ledger
/// must outlive the service and be immutable while it runs (bump via
/// RefreshLedgerHeight after appending transactions).
class InferenceService {
 public:
  /// Restores the model from a checkpoint stream (Dbg4Eth::Save format)
  /// and starts the dispatcher and worker threads.
  static Result<std::unique_ptr<InferenceService>> Create(
      const InferenceServiceConfig& config, std::istream* checkpoint,
      const eth::Ledger* ledger);

  /// Takes ownership of an already-loaded model (tests, in-process use).
  InferenceService(const InferenceServiceConfig& config,
                   std::unique_ptr<core::Dbg4Eth> model,
                   const eth::Ledger* ledger);

  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Submits one address for scoring. The future resolves with a
  /// ScoreResult whose status reflects per-request failures (unknown
  /// address, degenerate subgraph, deadline expiry, shed load) — the
  /// future itself never throws, and every request resolves even when
  /// Shutdown races submission.
  ///
  /// `deadline_us` is the request's budget in microseconds from now (0 =
  /// none); an expired request resolves kDeadlineExceeded without a
  /// forward pass. `trace_id` (W3C trace-context format) rides through
  /// the queue into the worker's trace context: the cold path's span tree
  /// is stamped with it, latency exemplars reference it, and it comes
  /// back on `ScoreResult::trace_id` for every outcome. An empty id means
  /// "untraced" (no context, no exemplars).
  std::future<ScoreResult> ScoreAsync(eth::AccountId address,
                                      int64_t deadline_us = 0,
                                      std::string trace_id = {});

  /// Blocking convenience wrapper around ScoreAsync.
  ScoreResult Score(eth::AccountId address);

  /// \brief Zero-downtime model hot-swap (RCU style).
  ///
  /// Installs `model` as the serving model for every batch dispatched
  /// after the swap; batches already in flight keep the snapshot they
  /// took and finish on the old model, which is freed when the last such
  /// batch completes. The result cache is cleared — its entries are keyed
  /// only by (address, height) and belong to the replaced model. Safe to
  /// call concurrently with scoring; typically wired to
  /// ModelRegistry::SetSwapCallback.
  void SwapModel(std::shared_ptr<const core::Dbg4Eth> model,
                 uint64_t generation);

  /// Checkpoint generation currently serving (0 until the first swap).
  uint64_t model_generation() const { return model_generation_.load(); }

  /// Re-reads the ledger's transaction count. When it grew, subsequent
  /// requests key the cache at the new height (old entries can no longer
  /// be returned) and superseded entries are dropped eagerly.
  void RefreshLedgerHeight();

  uint64_t ledger_height() const { return ledger_height_.load(); }

  /// Stops accepting requests, drains in-flight work, joins all threads.
  /// Pending requests still resolve (scored or error). Idempotent.
  void Shutdown();

  ServerStats::Snapshot StatsSnapshot() const {
    ServerStats::Snapshot snapshot = stats_.TakeSnapshot();
    snapshot.workers = workers_;
    return snapshot;
  }
  /// The registry holding this service's `serve_*` request, latency,
  /// batch and cache-event families. The admission queue's wait and
  /// depth families live in obs::MetricsRegistry::Global(); a full
  /// scrape renders both.
  const obs::MetricsRegistry& metrics() const { return stats_.registry(); }
  const InferenceServiceConfig& config() const { return config_; }
  /// Worker threads actually running (config.num_workers clamped to the
  /// hardware concurrency).
  int num_workers() const { return workers_; }

 private:
  /// One batch's immutable view of the serving model: the pointer pins
  /// the model alive for the batch's whole lifetime (RCU read side).
  struct ModelRef {
    std::shared_ptr<const core::Dbg4Eth> model;
    uint64_t generation = 0;
  };
  ModelRef SnapshotModel() const;

  void DispatchLoop();
  void ProcessBatch(std::vector<ScoreRequest>* batch);
  /// Cold path: materialize + normalize + forward pass through `model`.
  Result<double> ScoreCold(const core::Dbg4Eth& model,
                           eth::AccountId address) const;
  /// Cold path with the transient-failure retry loop around it; fills
  /// `retries` with the attempts beyond the first.
  Result<double> ScoreColdWithRetry(const core::Dbg4Eth& model,
                                    const ScoreRequest& request,
                                    int* retries);
  /// Resolves every request of one deduplicated cold group with the
  /// group's probability; `retries` belongs to the representative (first)
  /// request, duplicates count as in-batch cache hits.
  void FinishColdGroup(const std::vector<ScoreRequest*>& group,
                       double probability, int retries,
                       uint64_t model_generation);
  /// Resolves every request of a cold group whose scoring failed: each
  /// resolves as deadline-exceeded, stale (degraded mode) or an error.
  void ResolveColdFailure(const std::vector<ScoreRequest*>& group,
                          const Status& status);
  /// Resolves `request` from the newest stale cache entry below its
  /// height, if degraded mode allows; true when it was resolved.
  bool TryServeStale(const ScoreRequest& request);
  /// Resolves `request` with an error status and records it.
  void ResolveError(const ScoreRequest& request, Status status);

  InferenceServiceConfig config_;
  /// Serving model (RCU write side): guarded by model_mu_; readers take a
  /// shared_ptr copy per batch via SnapshotModel, writers re-point it in
  /// SwapModel. Never null after construction.
  mutable std::mutex model_mu_;
  std::shared_ptr<const core::Dbg4Eth> model_;
  std::atomic<uint64_t> model_generation_{0};
  const eth::Ledger* ledger_;
  std::atomic<uint64_t> ledger_height_{0};
  ResultCache cache_;
  ServerStats stats_;
  RequestQueue queue_;
  /// Resolved worker count; declared before pool_ so the clamp happens
  /// before the pool spawns its threads.
  int workers_;
  ThreadPool pool_;
  std::thread dispatcher_;
  std::mutex shutdown_mu_;  ///< Serializes Shutdown callers.
  std::atomic<bool> shutdown_{false};
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_INFERENCE_SERVICE_H_
