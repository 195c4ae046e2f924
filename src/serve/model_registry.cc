#include "serve/model_registry.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dbg4eth {
namespace serve {

namespace {

obs::Counter* ReloadCounter(const char* outcome) {
  return obs::MetricsRegistry::Global()->CounterAt(
      "serve_model_reloads_total",
      "Model hot-reload attempts by outcome (ok, rejected, corrupt)",
      {{"outcome", outcome}});
}

obs::Counter* ReloadOkCounter() {
  static obs::Counter* counter = ReloadCounter("ok");
  return counter;
}

obs::Counter* ReloadRejectedCounter() {
  static obs::Counter* counter = ReloadCounter("rejected");
  return counter;
}

obs::Counter* ReloadCorruptCounter() {
  static obs::Counter* counter = ReloadCounter("corrupt");
  return counter;
}

obs::Gauge* GenerationGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global()->GaugeAt(
      "serve_model_generation",
      "Checkpoint generation of the model currently serving");
  return gauge;
}

obs::Histogram* ReloadWallHistogram() {
  static obs::Histogram* hist = obs::MetricsRegistry::Global()->HistogramAt(
      "serve_model_reload_us",
      "Wall time of one load + validate + swap pipeline, microseconds");
  return hist;
}

}  // namespace

Result<std::unique_ptr<ModelRegistry>> ModelRegistry::Create(
    const ModelRegistryConfig& config, ProbeFn probe) {
  DBG4ETH_ASSIGN_OR_RETURN(std::unique_ptr<CheckpointStore> store,
                           CheckpointStore::Open(config.store));
  std::unique_ptr<ModelRegistry> registry(
      new ModelRegistry(config, std::move(store), std::move(probe)));
  // Initial load: best effort. An empty directory or a rejected first
  // candidate leaves current() null; the watcher keeps looking.
  (void)registry->Poll();
  if (config.start_watcher) {
    registry->watcher_ = std::thread([raw = registry.get()] {
      raw->WatchLoop();
    });
  }
  return registry;
}

ModelRegistry::ModelRegistry(const ModelRegistryConfig& config,
                             std::unique_ptr<CheckpointStore> store,
                             ProbeFn probe)
    : config_(config), store_(std::move(store)), probe_(std::move(probe)) {}

ModelRegistry::~ModelRegistry() { StopWatcher(); }

void ModelRegistry::StopWatcher() {
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    stop_ = true;
  }
  watcher_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

void ModelRegistry::WatchLoop() {
  std::unique_lock<std::mutex> lock(watcher_mu_);
  while (!stop_) {
    watcher_cv_.wait_for(
        lock, std::chrono::microseconds(config_.poll_interval_us),
        [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    const Result<bool> swapped = Poll();
    if (!swapped.ok()) {
      DBG4ETH_LOG(Warning) << "model reload attempt failed: "
                           << swapped.status().ToString();
    }
    lock.lock();
  }
}

std::shared_ptr<const core::Dbg4Eth> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t ModelRegistry::current_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_generation_;
}

void ModelRegistry::SetSwapCallback(SwapCallback callback) {
  std::shared_ptr<const core::Dbg4Eth> installed;
  uint64_t generation = 0;
  SwapCallback to_fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    swap_callback_ = std::move(callback);
    installed = current_;
    generation = current_generation_;
    to_fire = swap_callback_;
  }
  if (installed != nullptr && to_fire != nullptr) {
    to_fire(std::move(installed), generation);
  }
}

Result<bool> ModelRegistry::Poll() {
  std::lock_guard<std::mutex> poll_lock(poll_mu_);
  const uint64_t latest = store_->LatestGeneration();
  uint64_t floor = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    floor = std::max(current_generation_, skip_generation_);
  }
  if (latest <= floor) return false;  // Nothing new since the last look.
  return TryReload(latest);
}

Result<bool> ModelRegistry::TryReload(uint64_t latest_on_disk) {
  obs::ScopedTimer reload_timer(ReloadWallHistogram());
  Result<CheckpointStore::LoadedCheckpoint> loaded = store_->LoadLatestValid();
  if (!loaded.ok()) {
    // Every generation on disk is unreadable or fails its CRC.
    ReloadCorruptCounter()->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    skip_generation_ = latest_on_disk;
    return false;
  }
  const uint64_t candidate_generation = loaded.ValueOrDie().sequence;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (candidate_generation <= current_generation_) {
      // The newest generation is corrupt and the recovery walk fell back
      // to one we already serve (or older) — count it, remember the bad
      // sequence, keep serving.
      ReloadCorruptCounter()->Inc();
      skip_generation_ = latest_on_disk;
      return false;
    }
  }

  std::istringstream body(loaded.ValueOrDie().payload);
  Result<std::unique_ptr<core::Dbg4Eth>> candidate =
      core::Dbg4Eth::Load(&body);
  if (!candidate.ok()) {
    // The frame validated but the model body did not parse.
    ReloadCorruptCounter()->Inc();
    DBG4ETH_LOG(Warning) << "checkpoint generation " << candidate_generation
                         << " rejected: " << candidate.status().ToString();
    std::lock_guard<std::mutex> lock(mu_);
    skip_generation_ = latest_on_disk;
    return false;
  }
  std::shared_ptr<const core::Dbg4Eth> model(
      std::move(candidate).ValueOrDie().release());

  Result<std::vector<double>> probe_scores = ValidateCandidate(*model);
  if (!probe_scores.ok()) {
    ReloadRejectedCounter()->Inc();
    DBG4ETH_LOG(Warning) << "checkpoint generation " << candidate_generation
                         << " failed the validation gate: "
                         << probe_scores.status().ToString()
                         << "; continuing to serve generation "
                         << current_generation();
    std::lock_guard<std::mutex> lock(mu_);
    skip_generation_ = latest_on_disk;
    return false;
  }

  SwapCallback callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = model;
    current_generation_ = candidate_generation;
    current_probe_scores_ = std::move(probe_scores).ValueOrDie();
    callback = swap_callback_;
  }
  ReloadOkCounter()->Inc();
  GenerationGauge()->Set(static_cast<double>(candidate_generation));
  if (callback != nullptr) {
    callback(std::move(model), candidate_generation);
  }
  return true;
}

Result<std::vector<double>> ModelRegistry::ValidateCandidate(
    const core::Dbg4Eth& candidate) {
  DBG4ETH_FAIL_POINT("reload.validate");
  if (probe_ == nullptr) return std::vector<double>{};
  DBG4ETH_ASSIGN_OR_RETURN(std::vector<double> scores, probe_(candidate));
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i])) {
      return Status::DataLoss(
          "candidate produced a non-finite probe score at probe " +
          std::to_string(i));
    }
  }
  if (config_.max_probe_drift >= 0.0) {
    std::vector<double> baseline;
    {
      std::lock_guard<std::mutex> lock(mu_);
      baseline = current_probe_scores_;
    }
    // No baseline (first install, or the previous model ran a different
    // probe set size) means no drift to measure.
    if (baseline.size() == scores.size()) {
      for (size_t i = 0; i < scores.size(); ++i) {
        const double drift = std::fabs(scores[i] - baseline[i]);
        if (drift > config_.max_probe_drift) {
          return Status::FailedPrecondition(
              "probe " + std::to_string(i) + " drifted " +
              std::to_string(drift) + " (max " +
              std::to_string(config_.max_probe_drift) + ")");
        }
      }
    }
  }
  return scores;
}

}  // namespace serve
}  // namespace dbg4eth
