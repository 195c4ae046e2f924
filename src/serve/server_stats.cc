#include "serve/server_stats.h"

#include "common/json_util.h"

namespace dbg4eth {
namespace serve {

namespace {

/// Requests-per-pass buckets (growth 2, min 1): 1 is its own bucket.
obs::HistogramConfig RequestsPerPassBuckets() {
  obs::HistogramConfig config;
  config.min_value = 1.0;
  config.growth = 2.0;
  config.num_buckets = 16;
  return config;
}

ServerStats::LatencySummary Summarize(const obs::Histogram& histogram) {
  const obs::Histogram::Snapshot snap = histogram.TakeSnapshot();
  ServerStats::LatencySummary summary;
  summary.count = snap.count;
  summary.p50_us = snap.Percentile(0.50);
  summary.p95_us = snap.Percentile(0.95);
  summary.p99_us = snap.Percentile(0.99);
  summary.mean_us = snap.Mean();
  summary.max_us = snap.max;
  return summary;
}

}  // namespace

ServerStats::ServerStats() {
  const char* kRequestsHelp =
      "Resolved scoring requests by path (cold forward pass, cache hit, "
      "degraded stale serve)";
  requests_cold_ = registry_.CounterAt("serve_requests_total", kRequestsHelp,
                                       {{"path", "cold"}});
  requests_hit_ = registry_.CounterAt("serve_requests_total", kRequestsHelp,
                                      {{"path", "hit"}});
  requests_stale_ = registry_.CounterAt("serve_requests_total", kRequestsHelp,
                                        {{"path", "stale"}});
  errors_ = registry_.CounterAt(
      "serve_errors_total", "Requests resolved with a non-retryable error");
  deadline_exceeded_ = registry_.CounterAt(
      "serve_deadline_exceeded_total",
      "Requests resolved kDeadlineExceeded without a forward pass");
  shed_ = registry_.CounterAt(
      "serve_shed_total",
      "Requests resolved kResourceExhausted (429): shed under overload");
  retries_ = registry_.CounterAt(
      "serve_retries_total", "Cold-path retry attempts beyond the first");
  cold_passes_ = registry_.CounterAt("serve_cold_passes_total",
                                     "Cold forward passes run by the workers");
  const char* kCacheHelp = "Result-cache lookups and evictions by outcome";
  cache_lookup_hit_ = registry_.CounterAt("serve_cache_events_total",
                                          kCacheHelp, {{"outcome", "hit"}});
  cache_lookup_miss_ = registry_.CounterAt("serve_cache_events_total",
                                           kCacheHelp, {{"outcome", "miss"}});
  cache_eviction_ = registry_.CounterAt(
      "serve_cache_events_total", kCacheHelp, {{"outcome", "eviction"}});
  const char* kLatencyHelp =
      "End-to-end request latency in microseconds by path";
  latency_cold_ = registry_.HistogramAt("serve_latency_us", kLatencyHelp,
                                        {{"path", "cold"}});
  latency_hit_ = registry_.HistogramAt("serve_latency_us", kLatencyHelp,
                                       {{"path", "hit"}});
  latency_stale_ = registry_.HistogramAt("serve_latency_us", kLatencyHelp,
                                         {{"path", "stale"}});
  requests_per_pass_ = registry_.HistogramAt(
      "serve_requests_per_pass",
      "Requests resolved per cold forward pass (the request it ran for plus "
      "the duplicates that shared it)",
      {}, RequestsPerPassBuckets());
}

void ServerStats::Record(const ScoreResult& result) {
  if (!result.ok()) {
    switch (result.status.code()) {
      case StatusCode::kDeadlineExceeded:
        deadline_exceeded_->Inc();
        return;
      case StatusCode::kResourceExhausted:
        shed_->Inc();
        return;
      default:
        errors_->Inc();
        return;
    }
  }
  if (result.stale) {
    requests_stale_->Inc();
    latency_stale_->Record(result.latency_us, result.trace_id);
  } else if (result.cache_hit) {
    requests_hit_->Inc();
    latency_hit_->Record(result.latency_us, result.trace_id);
  } else {
    requests_cold_->Inc();
    latency_cold_->Record(result.latency_us, result.trace_id);
  }
}

void ServerStats::RecordRetry() { retries_->Inc(); }

void ServerStats::RecordColdPass(size_t requests) {
  cold_passes_->Inc();
  requests_per_pass_->Record(static_cast<double>(requests));
}

void ServerStats::RecordCacheAccess(bool hit) {
  (hit ? cache_lookup_hit_ : cache_lookup_miss_)->Inc();
}

void ServerStats::RecordCacheEviction() { cache_eviction_->Inc(); }

ServerStats::Snapshot ServerStats::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.cache_hits = requests_hit_->Value();
  snapshot.stale_served = requests_stale_->Value();
  snapshot.requests =
      requests_cold_->Value() + snapshot.cache_hits + snapshot.stale_served;
  snapshot.errors = errors_->Value();
  snapshot.deadline_exceeded = deadline_exceeded_->Value();
  snapshot.shed = shed_->Value();
  snapshot.retried = retries_->Value();
  snapshot.batches = cold_passes_->Value();
  snapshot.avg_batch_size = requests_per_pass_->TakeSnapshot().Mean();
  snapshot.cache_hit_rate =
      snapshot.requests == 0 ? 0.0
                             : static_cast<double>(snapshot.cache_hits) /
                                   static_cast<double>(snapshot.requests);
  snapshot.cold = Summarize(*latency_cold_);
  snapshot.hit = Summarize(*latency_hit_);
  snapshot.stale = Summarize(*latency_stale_);
  return snapshot;
}

namespace {

void LatencyJson(json::JsonWriter* writer, const char* key,
                 const ServerStats::LatencySummary& summary) {
  writer->Key(key);
  writer->BeginObject();
  writer->Key("count");
  writer->UInt(summary.count);
  writer->Key("p50_us");
  writer->NumberRoundTrip(summary.p50_us);
  writer->Key("p95_us");
  writer->NumberRoundTrip(summary.p95_us);
  writer->Key("p99_us");
  writer->NumberRoundTrip(summary.p99_us);
  writer->Key("mean_us");
  writer->NumberRoundTrip(summary.mean_us);
  writer->Key("max_us");
  writer->NumberRoundTrip(summary.max_us);
  writer->EndObject();
}

}  // namespace

std::string ServerStats::ToJson(const Snapshot& s) {
  std::string out;
  json::JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("requests");
  writer.UInt(s.requests);
  writer.Key("cache_hits");
  writer.UInt(s.cache_hits);
  writer.Key("cache_hit_rate");
  writer.NumberRoundTrip(s.cache_hit_rate);
  writer.Key("errors");
  writer.UInt(s.errors);
  writer.Key("deadline_exceeded");
  writer.UInt(s.deadline_exceeded);
  writer.Key("shed");
  writer.UInt(s.shed);
  writer.Key("retried");
  writer.UInt(s.retried);
  writer.Key("stale_served");
  writer.UInt(s.stale_served);
  writer.Key("cold_passes");
  writer.UInt(s.batches);
  writer.Key("requests_per_pass");
  writer.NumberRoundTrip(s.avg_batch_size);
  writer.Key("workers");
  writer.Int(s.workers);
  LatencyJson(&writer, "cold", s.cold);
  LatencyJson(&writer, "hit", s.hit);
  LatencyJson(&writer, "stale", s.stale);
  writer.EndObject();
  return out;
}

}  // namespace serve
}  // namespace dbg4eth
