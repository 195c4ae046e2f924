#include "serve/inference_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dbg4eth {
namespace serve {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Time a request spends between ScoreAsync admission and a worker
/// picking it out of its batch (queueing + dispatch + pool hand-off).
obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* hist = obs::MetricsRegistry::Global()->HistogramAt(
      "serve_queue_wait_us",
      "Admission-to-worker wait of batched requests, microseconds");
  return hist;
}

/// Requests still queued after the dispatcher popped the current batch.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global()->GaugeAt(
      "serve_queue_depth", "Requests waiting in the admission queue");
  return gauge;
}

/// Oversubscribing CPU-bound forward passes only adds context switching;
/// cap the worker count at the hardware concurrency (0 = use all of it).
int ClampWorkers(int requested) {
  const int hardware = ResolveNumThreads(0);
  if (requested <= 0) return hardware;
  return std::min(requested, hardware);
}

}  // namespace

Result<std::unique_ptr<InferenceService>> InferenceService::Create(
    const InferenceServiceConfig& config, std::istream* checkpoint,
    const eth::Ledger* ledger) {
  if (ledger == nullptr) {
    return Status::InvalidArgument("ledger must not be null");
  }
  DBG4ETH_ASSIGN_OR_RETURN(std::unique_ptr<core::Dbg4Eth> model,
                           core::Dbg4Eth::Load(checkpoint));
  return std::make_unique<InferenceService>(config, std::move(model), ledger);
}

InferenceService::InferenceService(const InferenceServiceConfig& config,
                                   std::unique_ptr<core::Dbg4Eth> model,
                                   const eth::Ledger* ledger)
    : config_(config),
      model_(std::move(model)),
      ledger_(ledger),
      cache_(config.cache),
      queue_(config.queue),
      workers_(ClampWorkers(config.num_workers)),
      pool_(workers_, config.pool_queue_capacity) {
  DBG4ETH_CHECK(model_ != nullptr);
  DBG4ETH_CHECK(ledger_ != nullptr);
  ledger_height_.store(ledger_->transactions().size());
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

InferenceService::~InferenceService() { Shutdown(); }

InferenceService::ModelRef InferenceService::SnapshotModel() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return {model_, model_generation_.load()};
}

void InferenceService::SwapModel(std::shared_ptr<const core::Dbg4Eth> model,
                                 uint64_t generation) {
  DBG4ETH_CHECK(model != nullptr);
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    model_ = std::move(model);
    model_generation_.store(generation);
  }
  // Cached scores are keyed only by (address, height); every entry was
  // produced by the replaced model. Dropping them also empties the stale
  // corpus, so degraded-mode answers never cross a model boundary.
  cache_.Clear();
}

void InferenceService::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shutdown_.exchange(true)) return;
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.Shutdown();
}

void InferenceService::RefreshLedgerHeight() {
  const uint64_t height = ledger_->transactions().size();
  const uint64_t previous = ledger_height_.exchange(height);
  if (height > previous && !config_.serve_stale) {
    // Without degraded mode, superseded entries are dead weight — drop
    // them eagerly. With it, they are the stale corpus that keeps
    // answers flowing while the cold path is failing; LRU pressure
    // retires them naturally.
    cache_.InvalidateOlderThan(height);
  }
}

std::future<ScoreResult> InferenceService::ScoreAsync(eth::AccountId address,
                                                      int64_t deadline_us,
                                                      std::string trace_id) {
  ScoreRequest request;
  request.address = address;
  request.ledger_height = ledger_height_.load();
  request.enqueue_time = std::chrono::steady_clock::now();
  if (deadline_us > 0) {
    request.deadline =
        request.enqueue_time + std::chrono::microseconds(deadline_us);
    request.has_deadline = true;
  }
  request.trace_id = std::move(trace_id);
  request.promise = std::make_shared<std::promise<ScoreResult>>();
  std::future<ScoreResult> future = request.promise->get_future();

  if (shutdown_.load()) {
    // A shut-down service rejects uniformly — even addresses that would
    // hit the cache — so clients observe one consistent terminal state.
    ResolveError(request, Status::FailedPrecondition("service is shut down"));
    return future;
  }

  // Fast path: a cached score resolves without touching the queue, the
  // pool, the sampler, or the model.
  const std::optional<double> cached =
      cache_.Get({address, request.ledger_height});
  stats_.RecordCacheAccess(cached.has_value());
  if (cached) {
    ScoreResult result;
    result.address = address;
    result.ledger_height = request.ledger_height;
    result.probability = *cached;
    result.cache_hit = true;
    result.model_generation = model_generation_.load();
    result.latency_us = ElapsedUs(request.enqueue_time);
    result.trace_id = request.trace_id;
    stats_.RecordRequest(result.latency_us, /*cache_hit=*/true,
                         request.trace_id);
    request.promise->set_value(std::move(result));
    return future;
  }

  // Admission control: never block the producer. TryPush copies the
  // request, so on kFull the original is still resolvable here.
  switch (queue_.TryPush(request)) {
    case RequestQueue::PushResult::kAccepted:
      break;
    case RequestQueue::PushResult::kClosed:
      ResolveError(request, Status::FailedPrecondition("service is shut down"));
      break;
    case RequestQueue::PushResult::kFull:
      // Overloaded: a stale answer beats an outright rejection when
      // degraded mode has one.
      if (TryServeStale(request)) break;
      stats_.RecordShed();
      ScoreResult result;
      result.address = address;
      result.ledger_height = request.ledger_height;
      result.trace_id = request.trace_id;
      result.status = Status::ResourceExhausted(
          "request queue is saturated; load shed");
      result.latency_us = ElapsedUs(request.enqueue_time);
      request.promise->set_value(std::move(result));
      break;
  }
  return future;
}

ScoreResult InferenceService::Score(eth::AccountId address) {
  return ScoreAsync(address).get();
}

void InferenceService::DispatchLoop() {
  std::vector<ScoreRequest> batch;
  while (queue_.PopBatch(&batch)) {
    stats_.RecordBatch(batch.size());
    QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    auto shared =
        std::make_shared<std::vector<ScoreRequest>>(std::move(batch));
    // Submit blocks when all workers are busy and the pool queue is full —
    // that backpressure propagates to producers through the request queue.
    if (!pool_.Submit([this, shared] { ProcessBatch(shared.get()); })) {
      // Pool already shut down (service teardown); fail the batch.
      for (const ScoreRequest& request : *shared) {
        ResolveError(request,
                     Status::FailedPrecondition("service is shut down"));
      }
    }
    batch.clear();
  }
}

void InferenceService::ProcessBatch(std::vector<ScoreRequest>* batch) {
  // One model snapshot for the whole batch (RCU read side): a hot-swap
  // landing mid-batch does not mix models within the batch, and the
  // snapshot's shared_ptr keeps the old model alive until this batch is
  // done with it.
  const ModelRef ref = SnapshotModel();
  // Pass 1 — classify without materializing anything. Requests that can
  // resolve immediately (expired while queued, cache filled by a
  // concurrent batch) do so here; the rest are deduplicated into cold
  // groups keyed by (address, height), one forward pass per group no
  // matter how many requesters share it.
  std::unordered_map<uint64_t, double> scored;  // packed key -> probability
  std::vector<uint64_t> cold_order;
  std::unordered_map<uint64_t, std::vector<ScoreRequest*>> cold;
  for (ScoreRequest& request : *batch) {
    QueueWaitHistogram()->Record(ElapsedUs(request.enqueue_time));
    const ResultCache::Key key{request.address, request.ledger_height};
    const uint64_t packed =
        (static_cast<uint64_t>(static_cast<uint32_t>(request.address))
         << 32) ^
        (request.ledger_height & 0xffffffffULL);

    // Dispatch-time deadline check: a request that expired while queued
    // is resolved without paying for the forward pass.
    if (request.expired(std::chrono::steady_clock::now())) {
      ScoreResult result;
      result.address = request.address;
      result.ledger_height = request.ledger_height;
      result.trace_id = request.trace_id;
      result.status =
          Status::DeadlineExceeded("deadline expired while queued");
      result.latency_us = ElapsedUs(request.enqueue_time);
      stats_.RecordDeadlineExceeded();
      request.promise->set_value(std::move(result));
      continue;
    }

    if (auto group = cold.find(packed); group != cold.end()) {
      group->second.push_back(&request);
      continue;
    }

    ScoreResult result;
    result.address = request.address;
    result.ledger_height = request.ledger_height;
    if (auto it = scored.find(packed); it != scored.end()) {
      result.probability = it->second;
      result.cache_hit = true;  // Shared with an in-batch duplicate.
    } else if (auto cached = cache_.Get(key)) {
      // A concurrent batch may have filled the cache since ScoreAsync
      // missed; still counts as skipping the expensive path. ScoreAsync
      // already booked this request's cache lookup, so this one books
      // nothing.
      result.probability = *cached;
      result.cache_hit = true;
      scored.emplace(packed, *cached);
    } else {
      cold_order.push_back(packed);
      cold.emplace(packed, std::vector<ScoreRequest*>{&request});
      continue;
    }
    result.model_generation = ref.generation;
    result.latency_us = ElapsedUs(request.enqueue_time);
    result.trace_id = request.trace_id;
    stats_.RecordRequest(result.latency_us, result.cache_hit,
                         request.trace_id);
    request.promise->set_value(std::move(result));
  }
  if (cold_order.empty()) return;

  // Pass 2 — score each cold group solo: one score_cold span tree per
  // group. The representative's trace context is active for the whole
  // group score, so the tree lands in the tracer stamped with that
  // request's trace id.
  for (uint64_t packed : cold_order) {
    const std::vector<ScoreRequest*>& group = cold[packed];
    obs::ScopedTraceContext trace_ctx(group.front()->trace_id);
    int retries = 0;
    Result<double> proba =
        ScoreColdWithRetry(*ref.model, *group.front(), &retries);
    if (!proba.ok()) {
      ResolveColdFailure(group, proba.status());
      continue;
    }
    FinishColdGroup(group, proba.ValueOrDie(), retries, ref.generation);
  }
}

void InferenceService::FinishColdGroup(
    const std::vector<ScoreRequest*>& group, double probability, int retries,
    uint64_t model_generation) {
  const ScoreRequest* rep = group.front();
  if (cache_.Put({rep->address, rep->ledger_height}, probability)) {
    stats_.RecordCacheEviction();
  }
  bool first = true;
  for (ScoreRequest* request : group) {
    // Duplicates may have expired while the group's representative was
    // being scored.
    if (!first && request->expired(std::chrono::steady_clock::now())) {
      ScoreResult result;
      result.address = request->address;
      result.ledger_height = request->ledger_height;
      result.trace_id = request->trace_id;
      result.status =
          Status::DeadlineExceeded("deadline expired while queued");
      result.latency_us = ElapsedUs(request->enqueue_time);
      stats_.RecordDeadlineExceeded();
      request->promise->set_value(std::move(result));
      continue;
    }
    ScoreResult result;
    result.address = request->address;
    result.ledger_height = request->ledger_height;
    result.probability = probability;
    result.cache_hit = !first;  // Duplicates share the group's one pass.
    result.retries = first ? retries : 0;
    result.model_generation = model_generation;
    result.latency_us = ElapsedUs(request->enqueue_time);
    result.trace_id = request->trace_id;
    stats_.RecordRequest(result.latency_us, result.cache_hit,
                         request->trace_id);
    request->promise->set_value(std::move(result));
    first = false;
  }
}

void InferenceService::ResolveColdFailure(
    const std::vector<ScoreRequest*>& group, const Status& status) {
  for (ScoreRequest* request : group) {
    if (status.code() == StatusCode::kDeadlineExceeded) {
      ScoreResult result;
      result.address = request->address;
      result.ledger_height = request->ledger_height;
      result.trace_id = request->trace_id;
      result.status = status;
      result.latency_us = ElapsedUs(request->enqueue_time);
      stats_.RecordDeadlineExceeded();
      request->promise->set_value(std::move(result));
      continue;
    }
    // Degraded mode: the cold path is down (transiently) and the retry
    // budget is spent — a stale score beats no score.
    if (status.IsTransient() && TryServeStale(*request)) continue;
    ResolveError(*request, status);
  }
}

Result<double> InferenceService::ScoreColdWithRetry(
    const core::Dbg4Eth& model, const ScoreRequest& request, int* retries) {
  *retries = 0;
  for (;;) {
    // Pre-score deadline check: each attempt (first or retry) is skipped
    // once the request has no time left.
    if (request.expired(std::chrono::steady_clock::now())) {
      return Status::DeadlineExceeded("deadline expired before scoring");
    }
    Result<double> proba = ScoreCold(model, request.address);
    if (proba.ok() || !proba.status().IsTransient() ||
        *retries >= config_.max_cold_retries) {
      return proba;
    }
    ++*retries;
    stats_.RecordRetry();
    // Linear backoff, truncated so a retry never sleeps past the
    // deadline it would then immediately fail.
    int64_t backoff_us = config_.retry_backoff_us * *retries;
    if (request.has_deadline) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(
              request.deadline - std::chrono::steady_clock::now())
              .count();
      backoff_us = std::min(backoff_us, std::max<int64_t>(0, remaining));
    }
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

bool InferenceService::TryServeStale(const ScoreRequest& request) {
  if (!config_.serve_stale) return false;
  const auto stale =
      cache_.GetNewestBelow(request.address, request.ledger_height);
  if (!stale) return false;
  ScoreResult result;
  result.address = request.address;
  result.ledger_height = stale->height;  // Height the score is valid at.
  result.probability = stale->probability;
  result.stale = true;
  // SwapModel clears the cache, so the stale corpus never outlives the
  // model that produced it — the current generation is the right label.
  result.model_generation = model_generation_.load();
  result.latency_us = ElapsedUs(request.enqueue_time);
  result.trace_id = request.trace_id;
  stats_.RecordStaleServed(result.latency_us, request.trace_id);
  request.promise->set_value(std::move(result));
  return true;
}

void InferenceService::ResolveError(const ScoreRequest& request,
                                    Status status) {
  ScoreResult result;
  result.address = request.address;
  result.ledger_height = request.ledger_height;
  result.trace_id = request.trace_id;
  result.status = std::move(status);
  result.latency_us = ElapsedUs(request.enqueue_time);
  stats_.RecordError();
  request.promise->set_value(std::move(result));
}

Result<double> InferenceService::ScoreCold(const core::Dbg4Eth& model,
                                           eth::AccountId address) const {
  // Root of the cold-request timing tree: materialize (sample_subgraph,
  // build_graphs, node_features), normalize, then the forward stages
  // emitted inside PredictProba (gsg_forward, calibrate, ldg_forward,
  // gbdt). See DESIGN.md "Observability".
  obs::TraceSpan span("score_cold");
  // The fail point returns its injected error from the lambda, so it fails
  // the span like any materialization error.
  Result<eth::GraphInstance> instance = [&]() -> Result<eth::GraphInstance> {
    DBG4ETH_FAIL_POINT("serve.score_cold");
    return eth::MaterializeInstance(*ledger_, address, config_.sampling,
                                    config_.num_time_slices);
  }();
  if (!instance.ok()) {
    // Failed roots are tail-retained by the tracer regardless of sampling,
    // so the trace explaining an error response is always findable.
    span.SetError();
    return instance.status();
  }
  {
    obs::TraceSpan normalize_span("normalize");
    model.Normalize(&instance.ValueOrDie());
  }
  return model.PredictProba(instance.ValueOrDie());
}

}  // namespace serve
}  // namespace dbg4eth
