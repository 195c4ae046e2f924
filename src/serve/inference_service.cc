#include "serve/inference_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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
/// picking it up.
obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* hist = obs::MetricsRegistry::Global()->HistogramAt(
      "serve_queue_wait_us",
      "Admission-to-worker wait of batched requests, microseconds");
  return hist;
}

/// Admitted requests still waiting for a worker after the latest pick-up.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global()->GaugeAt(
      "serve_queue_depth", "Requests waiting in the admission queue");
  return gauge;
}

/// An outcome that carries only its failure; Resolve stamps the rest.
ScoreResult Failure(Status status) {
  ScoreResult result;
  result.status = std::move(status);
  return result;
}

/// A cache hit: the cached score and the generation that produced it.
ScoreResult Hit(const ResultCache::Entry& cached) {
  ScoreResult result;
  result.probability = cached.probability;
  result.cache_hit = true;
  result.model_generation = cached.generation;
  return result;
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
      pool_(ClampWorkers(config.num_workers), config.queue_capacity) {
  DBG4ETH_CHECK(model_ != nullptr);
  DBG4ETH_CHECK(ledger_ != nullptr);
  ledger_height_.store(ledger_->transactions().size());
}

InferenceService::~InferenceService() { Shutdown(); }

InferenceService::ModelRef InferenceService::SnapshotModel() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return {model_, model_generation_.load()};
}

void InferenceService::SwapModel(std::shared_ptr<const core::Dbg4Eth> model,
                                 uint64_t generation) {
  DBG4ETH_CHECK(model != nullptr);
  std::lock_guard<std::mutex> lock(model_mu_);
  model_ = std::move(model);
  model_generation_.store(generation);
  // Every cached score was produced by the replaced model. Dropping them
  // drops their stale answers too, so degraded-mode answers never cross a
  // model boundary. Clearing under model_mu_ pairs with FillCache: a pass
  // still running on the replaced model cannot put its score back after
  // this.
  cache_.Clear();
}

void InferenceService::Shutdown() {
  shutdown_ = true;
  // The pool runs every task it accepted before joining its workers, so
  // every admitted request resolves; later submissions are refused.
  pool_.Shutdown();
}

void InferenceService::RefreshLedgerHeight() {
  ledger_height_.store(ledger_->transactions().size());
}

void InferenceService::ScoreAsync(eth::AccountId address, int64_t deadline_us,
                                  std::string trace_id, ScoreCallback done) {
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
  request.done = std::move(done);

  if (shutdown_.load()) {
    // A shut-down service rejects uniformly — even addresses that would
    // hit the cache — so clients observe one consistent terminal state.
    Resolve(request,
            Failure(Status::FailedPrecondition("service is shut down")));
    return;
  }

  // Fast path: a cached score resolves without touching the pool, the
  // sampler, or the model. The same lookup holds the stale answer, should
  // the pool refuse the miss.
  const std::optional<ResultCache::Entry> cached = cache_.Get(address);
  const bool hit = cached && cached->height == request.ledger_height;
  stats_.RecordCacheAccess(hit);
  if (hit) {
    Resolve(request, Hit(*cached));
    return;
  }

  // Admission control: never block the producer. A refused task is
  // dropped with its reference, so the request is still whole here.
  auto admitted = std::make_shared<ScoreRequest>(std::move(request));
  if (pool_.TrySubmit(
          [this, admitted] { ProcessRequest(std::move(*admitted)); })) {
    return;
  }
  const ScoreRequest& refused = *admitted;
  if (shutdown_.load()) {
    Resolve(refused,
            Failure(Status::FailedPrecondition("service is shut down")));
    return;
  }
  // Overloaded: a stale answer beats an outright rejection.
  if (TryServeStale(refused, cached)) return;
  Resolve(refused, Failure(Status::ResourceExhausted(
                       "request queue is saturated; load shed")));
}

std::future<ScoreResult> InferenceService::ScoreAsync(eth::AccountId address,
                                                      int64_t deadline_us,
                                                      std::string trace_id) {
  auto promise = std::make_shared<std::promise<ScoreResult>>();
  std::future<ScoreResult> future = promise->get_future();
  ScoreAsync(address, deadline_us, std::move(trace_id),
             [promise](ScoreResult result) {
               promise->set_value(std::move(result));
             });
  return future;
}

ScoreResult InferenceService::Score(eth::AccountId address) {
  return ScoreAsync(address).get();
}

void InferenceService::ProcessRequest(ScoreRequest request) {
  QueueWaitHistogram()->Record(ElapsedUs(request.enqueue_time));
  QueueDepthGauge()->Set(static_cast<double>(pool_.pending()));

  // Pick-up deadline check: a request that expired while queued is
  // resolved without paying for the forward pass.
  if (request.expired(std::chrono::steady_clock::now())) {
    Resolve(request, Failure(Status::DeadlineExceeded(
                         "deadline expired while queued")));
    return;
  }

  // One model snapshot per pick-up (RCU read side): a hot-swap landing
  // mid-pass does not change the model under it, and the snapshot's
  // shared_ptr keeps the old model alive until the pass is done. Its
  // generation is part of the in-flight key, so a request never shares a
  // pass running on another model.
  const ModelRef ref = SnapshotModel();
  const auto key = std::make_tuple(request.address, request.ledger_height,
                                   ref.generation);
  std::optional<ResultCache::Entry> cached;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    // A concurrent pass may have filled the cache since ScoreAsync missed.
    // ScoreAsync already booked this request's lookup, so this re-check
    // books nothing.
    cached = cache_.Get(request.address);
    hit = cached && cached->height == request.ledger_height;
    if (!hit) {
      auto [pass, inserted] = inflight_.try_emplace(key);
      if (!inserted) {
        // Another worker is scoring this key: share its pass.
        pass->second.push_back(std::move(request));
        return;
      }
    }
  }
  if (hit) {
    Resolve(request, Hit(*cached));
    return;
  }

  // This request is the pass's representative: its trace context is
  // active for the whole score, so the score_cold tree lands in the tracer
  // stamped with its trace id.
  int retries = 0;
  Result<double> proba = [&] {
    obs::ScopedTraceContext trace_ctx(request.trace_id);
    return ScoreColdWithRetry(*ref.model, request, &retries);
  }();
  if (proba.ok()) FillCache(request, proba.ValueOrDie(), ref.generation);

  std::vector<ScoreRequest> group;
  group.push_back(std::move(request));
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto pass = inflight_.find(key);
    for (ScoreRequest& duplicate : pass->second) {
      group.push_back(std::move(duplicate));
    }
    inflight_.erase(pass);
  }
  stats_.RecordColdPass(group.size());
  if (!proba.ok()) {
    ResolveColdFailure(group, proba.status());
    return;
  }
  FinishColdGroup(group, proba.ValueOrDie(), retries, ref.generation);
}

void InferenceService::FillCache(const ScoreRequest& request,
                                 double probability, uint64_t generation) {
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    // SwapModel has already cleared the replaced model's scores; putting
    // this one back would serve it past the swap.
    if (model_generation_.load() != generation) return;
    evicted = cache_.Put(request.address,
                         {request.ledger_height, probability, generation});
  }
  if (evicted) stats_.RecordCacheEviction();
}

void InferenceService::FinishColdGroup(const std::vector<ScoreRequest>& group,
                                       double probability, int retries,
                                       uint64_t model_generation) {
  bool first = true;
  for (const ScoreRequest& request : group) {
    // Duplicates may have expired while the group's representative was
    // being scored.
    if (!first && request.expired(std::chrono::steady_clock::now())) {
      Resolve(request, Failure(Status::DeadlineExceeded(
                           "deadline expired while queued")));
      continue;
    }
    ScoreResult result;
    result.probability = probability;
    result.cache_hit = !first;  // Duplicates share the group's one pass.
    result.retries = first ? retries : 0;
    result.model_generation = model_generation;
    Resolve(request, std::move(result));
    first = false;
  }
}

void InferenceService::ResolveColdFailure(
    const std::vector<ScoreRequest>& group, const Status& status) {
  // Degraded mode: the cold path is down (transiently) and the retry
  // budget is spent — a stale score beats no score. Every request of the
  // group asks for one account at one height, so one lookup serves all.
  const std::optional<ResultCache::Entry> cached =
      status.IsTransient() ? cache_.Get(group.front().address) : std::nullopt;
  for (const ScoreRequest& request : group) {
    if (TryServeStale(request, cached)) continue;
    Resolve(request, Failure(status));
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

bool InferenceService::TryServeStale(
    const ScoreRequest& request,
    const std::optional<ResultCache::Entry>& cached) {
  // An entry from a taller ledger than the request's (admitted before a
  // RefreshLedgerHeight) answers nothing.
  if (!cached || cached->height >= request.ledger_height) return false;
  ScoreResult result;
  result.ledger_height = cached->height;  // Height the score is valid at.
  result.probability = cached->probability;
  result.stale = true;
  result.model_generation = cached->generation;
  Resolve(request, std::move(result));
  return true;
}

void InferenceService::Resolve(const ScoreRequest& request,
                               ScoreResult result) {
  result.address = request.address;
  if (!result.stale) result.ledger_height = request.ledger_height;
  result.trace_id = request.trace_id;
  result.latency_us = ElapsedUs(request.enqueue_time);
  stats_.Record(result);
  request.done(std::move(result));
}

Result<double> InferenceService::ScoreCold(const core::Dbg4Eth& model,
                                           eth::AccountId address) const {
  // Root of the cold-request timing tree: materialize (sample_subgraph,
  // build_graphs, node_features), normalize, then the forward stages
  // emitted inside PredictProba (gsg_forward, calibrate, ldg_forward,
  // gbdt). See DESIGN.md "Observability".
  obs::TraceSpan span("score_cold");
  try {
    // The fail point returns its injected error from the lambda, so it
    // fails the span like any materialization error.
    Result<eth::GraphInstance> instance =
        [&]() -> Result<eth::GraphInstance> {
      DBG4ETH_FAIL_POINT("serve.score_cold");
      return eth::MaterializeInstance(*ledger_, address, config_.sampling,
                                      config_.num_time_slices);
    }();
    if (!instance.ok()) {
      // Failed roots are tail-retained by the tracer regardless of
      // sampling, so the trace explaining an error response is always
      // findable.
      span.SetError();
      return instance.status();
    }
    {
      obs::TraceSpan normalize_span("normalize");
      model.Normalize(&instance.ValueOrDie());
    }
    return model.PredictProba(instance.ValueOrDie());
  } catch (const std::exception& e) {
    // A throwing pass fails its requests instead of leaving them
    // unresolved.
    span.SetError();
    return Status::Internal(std::string("cold score threw: ") + e.what());
  }
}

}  // namespace serve
}  // namespace dbg4eth
