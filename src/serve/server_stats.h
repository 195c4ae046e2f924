#ifndef DBG4ETH_SERVE_SERVER_STATS_H_
#define DBG4ETH_SERVE_SERVER_STATS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "serve/types.h"

namespace dbg4eth {
namespace serve {

/// \brief Operational counters and latency distributions of one service.
/// All mutators are thread-safe; Snapshot gives a consistent-enough
/// point-in-time view for reporting.
///
/// Every event is booked exactly once, into an instrument of the `serve_*`
/// families in this object's own obs::MetricsRegistry; TakeSnapshot (and
/// so ToJson) reads those instruments back. A registry per
/// service keeps each service's numbers exact however many services a
/// process runs; exporters render it next to the global registry (see
/// InferenceService::metrics).
class ServerStats {
 public:
  struct LatencySummary {
    uint64_t count = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double mean_us = 0.0;
    double max_us = 0.0;
  };

  struct Snapshot {
    /// Successfully resolved requests (cold, cache-hit, or stale-served).
    uint64_t requests = 0;
    uint64_t cache_hits = 0;
    /// Per-request failures other than deadline expiry and load shedding
    /// (unknown address, degenerate subgraph, cold path down past the
    /// retry budget, shutdown rejections).
    uint64_t errors = 0;
    /// Requests resolved kDeadlineExceeded without a forward pass.
    uint64_t deadline_exceeded = 0;
    /// Requests resolved kResourceExhausted, the 429 of a shed request.
    uint64_t shed = 0;
    /// Cold-path retry attempts after transient failures.
    uint64_t retried = 0;
    /// Requests answered from a stale cache entry in degraded mode.
    uint64_t stale_served = 0;
    /// Cold forward passes run (the `serve_cold_passes_total` family).
    /// perfbench reads this field and the next one under these names.
    uint64_t batches = 0;
    /// Requests resolved per cold forward pass (the mean of
    /// `serve_requests_per_pass`): 1 plus the duplicates that attached to
    /// the pass while it ran.
    double avg_batch_size = 0.0;
    double cache_hit_rate = 0.0;
    /// Worker threads actually running, after the service clamped the
    /// configured count to the hardware concurrency.
    int workers = 0;
    LatencySummary cold;   ///< Full path: materialize + forward pass.
    LatencySummary hit;    ///< Served from the result cache.
    LatencySummary stale;  ///< Degraded mode: stale entry at an old height.
  };

  ServerStats();

  ServerStats(const ServerStats&) = delete;
  ServerStats& operator=(const ServerStats&) = delete;

  /// Books one resolved request by the outcome its client sees. An OK
  /// result counts as a request of its path (stale; hit, which includes a
  /// duplicate that shared a pass; else cold), and its end-to-end latency
  /// goes into that path's `serve_latency_us` histogram; a non-empty
  /// `trace_id` attaches an exemplar to the bucket the latency landed in,
  /// linking the exposition back to the retained trace. A failed result
  /// counts by its status: kDeadlineExceeded as a deadline expiry,
  /// kResourceExhausted (the 429) as a shed, anything else as an error.
  void Record(const ScoreResult& result);
  /// Records one cold forward pass and the requests it resolved.
  void RecordColdPass(size_t requests);
  /// Records one cold-path retry attempt. Attempts of passes that end in
  /// a failure count too, so no ScoreResult carries them all.
  void RecordRetry();
  /// Records one result-cache lookup at admission, hit or miss.
  void RecordCacheAccess(bool hit);
  /// Records one cache entry evicted by capacity pressure.
  void RecordCacheEviction();

  /// Reads the snapshot from the registry's instruments. `workers` stays
  /// 0: the owning service fills it in.
  Snapshot TakeSnapshot() const;

  /// The registry every event is booked in.
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// One-JSON-object rendering of a snapshot (the `/statusz` admin
  /// endpoint embeds it; see src/net/scoring_app.cc).
  static std::string ToJson(const Snapshot& snapshot);

 private:
  obs::MetricsRegistry registry_;
  // Instruments of registry_, resolved once at construction.
  obs::Counter* requests_cold_;
  obs::Counter* requests_hit_;
  obs::Counter* requests_stale_;
  obs::Counter* errors_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* shed_;
  obs::Counter* retries_;
  obs::Counter* cold_passes_;
  obs::Counter* cache_lookup_hit_;
  obs::Counter* cache_lookup_miss_;
  obs::Counter* cache_eviction_;
  obs::Histogram* latency_cold_;
  obs::Histogram* latency_hit_;
  obs::Histogram* latency_stale_;
  obs::Histogram* requests_per_pass_;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_SERVER_STATS_H_
