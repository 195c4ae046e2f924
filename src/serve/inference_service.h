#ifndef DBG4ETH_SERVE_INFERENCE_SERVICE_H_
#define DBG4ETH_SERVE_INFERENCE_SERVICE_H_

#include <atomic>
#include <future>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger_base.h"
#include "graph/sampling.h"
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
  /// Bound on admitted cold requests that no worker has picked up yet;
  /// a miss beyond it is shed (or served stale) at admission.
  size_t queue_capacity = 4096;
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
};

/// \brief Concurrent account-scoring service over a trained Dbg4Eth model.
///
/// Request path: `ScoreAsync(address, ..., done)` first looks the account
/// up in the sharded result cache. An entry scored at the request's ledger
/// height is a hit: `done` runs right away on the caller's thread,
/// skipping both subgraph materialization and the forward pass, as it does
/// for a shed request, a stale answer and a shut-down service. Each miss is
/// submitted as one task to the service's bounded ThreadPool of
/// `num_workers` threads: a cold request crosses one thread hand-off, never
/// waits for a batching window, and its `done` runs on the worker. The
/// worker re-checks the cache, then looks the request up in the in-flight
/// table keyed by (address, height, model generation): a request whose key
/// another worker is already scoring attaches to that pass and shares its
/// result. Otherwise the worker scores it — materializes the account-centred
/// subgraph (eth::MaterializeInstance), normalizes it with the model's
/// train-split statistics, runs the double-graph forward pass — fills the
/// cache and resolves the request and everything attached to it. Every
/// outcome is booked once, in the service's own metrics registry
/// (ServerStats; see `metrics()`).
///
/// Degraded mode (DESIGN.md "Failure model"): when the pool refuses a miss,
/// or its pass fails transiently past the retries, the account's entry from
/// an older ledger height answers, flagged `stale = true`.
///
/// Thread safety: the service holds the model as a
/// `shared_ptr<const Dbg4Eth>` behind a mutex; each pick-up takes one
/// snapshot of that pointer and scores through it — Dbg4Eth::PredictProba /
/// Normalize are const and race-free, so any number of workers score
/// concurrently. `SwapModel` (wired to ModelRegistry's swap callback)
/// RCU-swaps the pointer: passes already running finish on the model they
/// snapshotted, later pick-ups see the new model, and the old model is
/// freed when its last running pass drops its reference. The ledger must
/// outlive the service and be immutable while it runs (bump via
/// RefreshLedgerHeight after appending transactions).
class InferenceService {
 public:
  /// Restores the model from a checkpoint stream (Dbg4Eth::Save format)
  /// and starts the worker pool.
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

  /// Submits one address for scoring and calls `done` exactly once with a
  /// ScoreResult whose status reflects per-request failures (unknown
  /// address, degenerate subgraph, deadline expiry, shed load), even when
  /// Shutdown races submission. Every outcome is booked in ServerStats
  /// before `done` runs. Outcomes decided at admission — a cache hit, a
  /// shed or stale answer, a shut-down service — call it inline, before
  /// ScoreAsync returns; a cold pass calls it on the worker thread, for
  /// the pass's own request and for every duplicate attached to it. So
  /// `done` must not block, must not throw, and must not call back into a
  /// lock the caller holds across ScoreAsync.
  ///
  /// `deadline_us` is the request's budget in microseconds from now (0 =
  /// none); an expired request resolves kDeadlineExceeded without a
  /// forward pass. `trace_id` (W3C trace-context format) rides with the
  /// request into the worker's trace context: the cold path's span tree
  /// is stamped with it, latency exemplars reference it, and it comes
  /// back on `ScoreResult::trace_id` for every outcome. An empty id means
  /// "untraced" (no context, no exemplars).
  void ScoreAsync(eth::AccountId address, int64_t deadline_us,
                  std::string trace_id, ScoreCallback done);

  /// ScoreAsync whose result arrives through a future (never throws).
  std::future<ScoreResult> ScoreAsync(eth::AccountId address,
                                      int64_t deadline_us = 0,
                                      std::string trace_id = {});

  /// Blocking convenience wrapper around ScoreAsync.
  ScoreResult Score(eth::AccountId address);

  /// \brief Zero-downtime model hot-swap (RCU style).
  ///
  /// Installs `model` as the serving model for every request picked up
  /// after the swap; passes already running keep the snapshot they took
  /// and finish on the old model, which is freed when the last such pass
  /// completes. The result cache is cleared — its entries belong to the
  /// replaced model — and a pass finishing on the old model does not cache
  /// its score. Safe to call concurrently with scoring; typically wired to
  /// ModelRegistry::SetSwapCallback.
  void SwapModel(std::shared_ptr<const core::Dbg4Eth> model,
                 uint64_t generation);

  /// Checkpoint generation currently serving (0 until the first swap).
  uint64_t model_generation() const { return model_generation_.load(); }

  /// Re-reads the ledger's transaction count. When it grew, later requests
  /// carry the new height: an entry scored at an older height no longer
  /// answers them as a hit, only as their stale answer in degraded mode,
  /// until the account's next score replaces it.
  void RefreshLedgerHeight();

  uint64_t ledger_height() const { return ledger_height_.load(); }

  /// Stops accepting requests, lets the workers run every accepted
  /// request, joins them. Every accepted request still resolves (scored
  /// or error). Idempotent.
  void Shutdown();

  ServerStats::Snapshot StatsSnapshot() const {
    ServerStats::Snapshot snapshot = stats_.TakeSnapshot();
    snapshot.workers = num_workers();
    return snapshot;
  }
  /// The registry holding this service's `serve_*` request, latency,
  /// forward-pass and cache-event families. The admission queue's wait and
  /// depth families live in obs::MetricsRegistry::Global(); a full
  /// scrape renders both.
  const obs::MetricsRegistry& metrics() const { return stats_.registry(); }
  const InferenceServiceConfig& config() const { return config_; }
  /// Worker threads actually running (config.num_workers clamped to the
  /// hardware concurrency).
  int num_workers() const { return pool_.num_threads(); }

 private:
  /// One pick-up's immutable view of the serving model: the pointer pins
  /// the model alive until the pick-up is done (RCU read side).
  struct ModelRef {
    std::shared_ptr<const core::Dbg4Eth> model;
    uint64_t generation = 0;
  };
  ModelRef SnapshotModel() const;

  /// Pool task of one admitted miss: expiry, cache re-check, in-flight
  /// sharing, and otherwise one cold pass for it and its duplicates.
  void ProcessRequest(ScoreRequest request);
  /// Cold path: materialize + normalize + forward pass through `model`.
  /// An exception thrown inside the pass fails it with kInternal.
  Result<double> ScoreCold(const core::Dbg4Eth& model,
                           eth::AccountId address) const;
  /// Cold path with the transient-failure retry loop around it; fills
  /// `retries` with the attempts beyond the first.
  Result<double> ScoreColdWithRetry(const core::Dbg4Eth& model,
                                    const ScoreRequest& request,
                                    int* retries);
  /// Caches a pass's score, unless the model of `generation` was swapped
  /// out while the pass ran: the cache holds only the serving model's
  /// scores, so SwapModel's clear retires every older one.
  void FillCache(const ScoreRequest& request, double probability,
                 uint64_t generation);
  /// Resolves every request of one cold group with the group's
  /// probability; `retries` belongs to the representative (first)
  /// request, the duplicates attached to its pass count as cache hits.
  void FinishColdGroup(const std::vector<ScoreRequest>& group,
                       double probability, int retries,
                       uint64_t model_generation);
  /// Resolves every request of a cold group whose scoring failed: each
  /// resolves stale (degraded mode, transient failures) or with `status`.
  void ResolveColdFailure(const std::vector<ScoreRequest>& group,
                          const Status& status);
  /// Resolves `request` from `cached` when that entry was scored at an
  /// older ledger height (degraded mode); true when it was resolved.
  bool TryServeStale(const ScoreRequest& request,
                     const std::optional<ResultCache::Entry>& cached);
  /// The one exit of every request: stamps `result` with the request's
  /// address, trace id, latency and (unless the answer is stale, which
  /// reports the height its score is valid at) ledger height, books it
  /// once in stats_, then runs `request.done`.
  void Resolve(const ScoreRequest& request, ScoreResult result);

  InferenceServiceConfig config_;
  /// Serving model (RCU write side): guarded by model_mu_; readers take a
  /// shared_ptr copy per pick-up via SnapshotModel, writers re-point it in
  /// SwapModel. Cache fills and SwapModel's clear also run under model_mu_,
  /// so no score of a replaced model is cached after the swap. Never null
  /// after construction.
  mutable std::mutex model_mu_;
  std::shared_ptr<const core::Dbg4Eth> model_;
  std::atomic<uint64_t> model_generation_{0};
  const eth::Ledger* ledger_;
  std::atomic<uint64_t> ledger_height_{0};
  ResultCache cache_;
  ServerStats stats_;
  /// Cold passes being scored, keyed by (address, height, model
  /// generation), each with the duplicate requests that attached to it
  /// while it ran. A pass fills the cache before leaving the table, and
  /// pick-ups check both under inflight_mu_, so a duplicate either
  /// attaches or hits.
  std::mutex inflight_mu_;
  std::map<std::tuple<eth::AccountId, uint64_t, uint64_t>,
           std::vector<ScoreRequest>>
      inflight_;
  std::atomic<bool> shutdown_{false};
  /// Runs ProcessRequest for every admitted miss, config.num_workers
  /// threads (clamped). Declared last: its tasks use every member above.
  ThreadPool pool_;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_INFERENCE_SERVICE_H_
