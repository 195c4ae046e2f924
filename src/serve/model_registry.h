#ifndef DBG4ETH_SERVE_MODEL_REGISTRY_H_
#define DBG4ETH_SERVE_MODEL_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/checkpoint_store.h"
#include "common/result.h"
#include "common/status.h"
#include "core/dbg4eth.h"

namespace dbg4eth {
namespace serve {

/// \brief Knobs of the serving-side model hot-reload watcher.
struct ModelRegistryConfig {
  /// On-disk checkpoint sequence to watch. Payloads are Dbg4Eth::Save
  /// frames committed through a CheckpointStore (the trainer publishes,
  /// the registry only reads).
  CheckpointStoreConfig store;
  /// Background watcher poll interval. The poll itself is one directory
  /// scan; loading and validating a candidate happens off the request
  /// path on the watcher thread.
  int64_t poll_interval_us = 20'000;
  /// Start the background watcher thread on Create. Tests that want
  /// deterministic reload timing leave this off and call Poll directly.
  bool start_watcher = true;
  /// Validation gate: largest |probe score difference| tolerated between
  /// the candidate and the currently served model over the probe set.
  /// Negative disables the drift check (non-finite scores still reject).
  double max_probe_drift = 0.25;
};

/// \brief Zero-downtime model hot-reload for the serving layer.
///
/// A background watcher polls the checkpoint directory; when a new
/// generation appears it is loaded, CRC-validated and gated off the
/// request path: the candidate scores a fixed probe set, and non-finite
/// probe scores or probe drift beyond `max_probe_drift` versus the live
/// model reject the reload (the live model keeps serving — rollback is
/// automatic because the swap simply never happens). An accepted
/// candidate is RCU-swapped in as a `shared_ptr<const Dbg4Eth>`: readers
/// take a snapshot per pick-up, so in-flight scores finish on the model
/// they started with and the old model is freed when its last pass
/// completes. A rejected or corrupt generation is remembered and not
/// re-tried until an even newer generation appears.
///
/// Metrics: `serve_model_reloads_total{outcome=ok|rejected|corrupt}` and
/// the `serve_model_generation` gauge.
///
/// Thread safety: all public methods are safe to call concurrently with
/// the watcher; `current()` is wait-free for readers up to one mutex-
/// guarded shared_ptr copy.
class ModelRegistry {
 public:
  /// Scores the registry's fixed probe set with `model`, returning one
  /// score per probe. The same function is applied to the candidate and
  /// (at swap time, cached) to the live model, so drift is comparable.
  /// Serving wires this to materialize-and-PredictProba over a fixed
  /// address set; tests may stub it.
  using ProbeFn =
      std::function<Result<std::vector<double>>(const core::Dbg4Eth&)>;

  /// Invoked after a successful swap with the new model and generation —
  /// outside the registry lock, on the thread that drove the reload. The
  /// serving layer uses it to re-point its model reference and drop its
  /// result cache (entries are keyed by account alone, so an old model's
  /// scores would otherwise answer for the new one).
  using SwapCallback = std::function<void(
      std::shared_ptr<const core::Dbg4Eth>, uint64_t generation)>;

  /// Opens the store and attempts one initial load (an empty or fully
  /// corrupt directory is not an error — `current()` stays null and the
  /// watcher keeps looking). `probe` may be null to disable the gate.
  static Result<std::unique_ptr<ModelRegistry>> Create(
      const ModelRegistryConfig& config, ProbeFn probe);

  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The model currently serving (null when nothing was ever accepted).
  std::shared_ptr<const core::Dbg4Eth> current() const;

  /// Checkpoint generation of the current model (0 when none).
  uint64_t current_generation() const;

  /// Installs the post-swap hook; fires immediately when a model is
  /// already installed so late wiring cannot miss the initial load.
  void SetSwapCallback(SwapCallback callback);

  /// One reload check: scans the directory and, when a generation newer
  /// than both the current and the last rejected one exists, runs the
  /// load + validate + swap pipeline. Returns true when a swap happened.
  /// Called by the watcher; tests call it directly for determinism.
  Result<bool> Poll();

  /// Stops the background watcher (idempotent; also run by the dtor).
  void StopWatcher();

  const ModelRegistryConfig& config() const { return config_; }
  const CheckpointStore& store() const { return *store_; }

 private:
  ModelRegistry(const ModelRegistryConfig& config,
                std::unique_ptr<CheckpointStore> store, ProbeFn probe);

  /// Loads, gates and (on success) swaps in the newest valid generation.
  /// `latest_on_disk` is the newest directory sequence at poll time; it
  /// becomes the skip watermark on rejection.
  Result<bool> TryReload(uint64_t latest_on_disk);

  /// The validation gate: probe the candidate, reject non-finite scores
  /// and drift beyond the threshold. Returns the candidate's probe
  /// scores for caching on acceptance.
  Result<std::vector<double>> ValidateCandidate(const core::Dbg4Eth& candidate);

  void WatchLoop();

  ModelRegistryConfig config_;
  std::unique_ptr<CheckpointStore> store_;
  ProbeFn probe_;

  mutable std::mutex mu_;
  std::shared_ptr<const core::Dbg4Eth> current_;
  uint64_t current_generation_ = 0;
  /// Probe scores of the current model (drift baseline for candidates).
  std::vector<double> current_probe_scores_;
  /// Newest generation already evaluated and rejected (corrupt or gated
  /// out); re-attempted only when an even newer generation appears.
  uint64_t skip_generation_ = 0;
  SwapCallback swap_callback_;
  /// Serializes Poll callers so two concurrent polls cannot interleave
  /// their load/validate/swap pipelines.
  std::mutex poll_mu_;

  std::mutex watcher_mu_;
  std::condition_variable watcher_cv_;
  bool stop_ = false;
  std::thread watcher_;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_MODEL_REGISTRY_H_
