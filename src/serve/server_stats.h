#ifndef DBG4ETH_SERVE_SERVER_STATS_H_
#define DBG4ETH_SERVE_SERVER_STATS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace dbg4eth {
namespace serve {

/// \brief Operational counters and latency distributions of one service.
/// All mutators are thread-safe; Snapshot gives a consistent-enough
/// point-in-time view for reporting.
///
/// Every event is booked exactly once, into an instrument of the `serve_*`
/// families in this object's own obs::MetricsRegistry; TakeSnapshot (and
/// so Format and ToJson) reads those instruments back. A registry per
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
    /// Requests shed with kResourceExhausted at admission.
    uint64_t shed = 0;
    /// Cold-path retry attempts after transient failures.
    uint64_t retried = 0;
    /// Requests answered from a stale cache entry in degraded mode.
    uint64_t stale_served = 0;
    /// Cold forward passes run (the `serve_batches_total` family).
    uint64_t batches = 0;
    /// Requests resolved per cold forward pass: 1 plus the duplicates that
    /// attached to the pass while it ran.
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

  /// Records one finished request: its end-to-end latency goes into the
  /// cold or cache-hit histogram. A non-empty `trace_id` attaches an
  /// exemplar to the `serve_latency_us` bucket the latency landed in,
  /// linking the exposition back to the retained trace.
  void RecordRequest(double latency_us, bool cache_hit,
                     const std::string& trace_id = std::string());
  void RecordError();
  /// Records one cold forward pass and the requests it resolved.
  void RecordBatch(size_t batch_size);
  /// Records one request resolved kDeadlineExceeded (not an error).
  void RecordDeadlineExceeded();
  /// Records one request shed with kResourceExhausted (not an error).
  void RecordShed();
  /// Records one cold-path retry attempt.
  void RecordRetry();
  /// Records one request served stale in degraded mode (counts as a
  /// resolved request; its latency goes into the stale histogram).
  void RecordStaleServed(double latency_us,
                         const std::string& trace_id = std::string());
  /// Records one result-cache lookup at admission, hit or miss.
  void RecordCacheAccess(bool hit);
  /// Records one cache entry evicted by capacity pressure.
  void RecordCacheEviction();

  /// Reads the snapshot from the registry's instruments. `workers` stays
  /// 0: the owning service fills it in.
  Snapshot TakeSnapshot() const;

  /// The registry every event is booked in.
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Multi-line human-readable rendering of a snapshot.
  static std::string Format(const Snapshot& snapshot);

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
  obs::Counter* batches_;
  obs::Counter* cache_lookup_hit_;
  obs::Counter* cache_lookup_miss_;
  obs::Counter* cache_eviction_;
  obs::Histogram* latency_cold_;
  obs::Histogram* latency_hit_;
  obs::Histogram* latency_stale_;
  obs::Histogram* batch_size_;
};

}  // namespace serve
}  // namespace dbg4eth

#endif  // DBG4ETH_SERVE_SERVER_STATS_H_
