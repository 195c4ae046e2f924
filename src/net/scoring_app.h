#ifndef DBG4ETH_NET_SCORING_APP_H_
#define DBG4ETH_NET_SCORING_APP_H_

#include <cstdint>

#include "net/http.h"
#include "net/server.h"
#include "serve/inference_service.h"

namespace dbg4eth {
namespace net {

/// \brief Knobs of the HTTP scoring API.
struct ScoringAppConfig {
  /// Address-count bound of one /v1/score_batch body.
  size_t max_batch_addresses = 256;
  /// Registers the `/debug/*` routes (traces, profile, vars). They are
  /// unauthenticated operator tooling: anything that can reach the port
  /// can read traces and trigger profile captures, so disable this when
  /// the server binds beyond loopback for untrusted clients. When off,
  /// the paths 404 like any unknown route.
  bool expose_debug_routes = true;
};

/// The /v1/score answer for `result`: one JSON object with the score and
/// both class probabilities in round-trip form, and a status code that
/// mirrors the result's status (serve::SuggestedHttpStatus).
HttpResponse ScoreResponse(const serve::ScoreResult& result);

/// \brief The HTTP face of InferenceService: scoring + admin endpoints.
///
/// Routes registered on the server:
///   POST /v1/score        {"address": N} -> one ScoreResult as JSON
///   POST /v1/score_batch  {"addresses": [N, ...]} -> {"results": [...]}
///   GET  /metrics         text exposition of the global obs registry
///                         and InferenceService::metrics(); classic
///                         Prometheus 0.0.4 by default, OpenMetrics
///                         (with histogram exemplars + `# EOF`) when the
///                         scraper sends
///                         `Accept: application/openmetrics-text`
///   GET  /healthz         liveness ("ok")
///   GET  /statusz         JSON: ServerStats snapshot, model generation,
///                         ledger height, HTTP-server counters, and the
///                         obs metrics + span snapshot
///   GET  /debug/traces    retained trace trees as JSON; filters:
///                         ?id=<trace-id> (exact), ?min_duration_us=N,
///                         ?error=1 (failed traces only)
///   GET  /debug/profile   ?seconds=N (default 1): samples the process
///                         for N seconds, returns collapsed-stack text
///                         for flamegraph tools; 409 while another
///                         capture runs, 503 where profiling is disabled
///   GET  /debug/vars      the obs JSON snapshot (metrics + spans)
///
/// The `/debug/*` routes register only when
/// `ScoringAppConfig::expose_debug_routes` is set (the default — the
/// default server bind is loopback); disable it on untrusted networks.
///
/// Trace propagation: the server resolves each request's trace id from
/// `traceparent`/`x-request-id` (generating one otherwise) and injects it
/// as `x-trace-id`; the scoring handlers carry it into
/// InferenceService::ScoreAsync so span trees and latency exemplars are
/// stamped with the same id the response returns.
///
/// Threading: the two score routes are async (HttpServer::RouteAsync).
/// They parse the request and call InferenceService::ScoreAsync on the
/// connection's event loop; a cache hit, a 400, a shed (429) or a stale
/// answer is rendered and written right there, and a cold score is
/// rendered on the service's worker and posted back to the loop. So the
/// service's admission control is the only one on these routes. The
/// admin and debug routes may block and run on the handler pool.
///
/// Deadline propagation: an `x-deadline-us` request header (microsecond
/// budget, clamped to `kMaxDeadlineUs`) rides into
/// InferenceService::ScoreAsync when the loop dispatches the request, so
/// an expired request resolves kDeadlineExceeded without a forward pass
/// and maps to 504 on the wire. All ScoreResult error statuses map
/// through serve::SuggestedHttpStatus (504 deadline / 429 shed / 503
/// unavailable / 404 unknown address).
///
/// Scores are serialized with round-trip precision: the double a client
/// parses back is bit-identical to the in-process PredictProba result.
class ScoringApp {
 public:
  /// `service` and `server` must outlive the app; the app must outlive
  /// the server's Shutdown (handlers reference it).
  ScoringApp(serve::InferenceService* service, HttpServer* server,
             const ScoringAppConfig& config = ScoringAppConfig());

  ScoringApp(const ScoringApp&) = delete;
  ScoringApp& operator=(const ScoringApp&) = delete;

 private:
  /// Run on the event loop; answer through `respond`, inline or from the
  /// service's worker.
  void HandleScore(const HttpRequest& request,
                   HttpServer::Responder respond) const;
  void HandleScoreBatch(const HttpRequest& request,
                        HttpServer::Responder respond) const;
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleStatusz(const HttpRequest& request);
  HttpResponse HandleDebugTraces(const HttpRequest& request);
  HttpResponse HandleDebugProfile(const HttpRequest& request);
  HttpResponse HandleDebugVars(const HttpRequest& request);

  /// Largest accepted `x-deadline-us` value, 60 s; larger asks are
  /// clamped so a client cannot keep a request queued for an hour.
  static constexpr int64_t kMaxDeadlineUs = 60'000'000;
  /// Largest accepted `/debug/profile?seconds=` value; larger asks are
  /// clamped (the capture blocks one handler thread for its duration and
  /// interrupts the whole process at the sampling frequency).
  static constexpr double kMaxProfileSeconds = 10.0;

  /// Parses the `x-deadline-us` header into a budget clamped to
  /// `kMaxDeadlineUs`; 0 (no deadline) when absent or zero. Negative or
  /// non-numeric values are reported via `error` (400).
  bool ParseDeadline(const HttpRequest& request, int64_t* deadline_us,
                     HttpResponse* error) const;

  serve::InferenceService* service_;
  HttpServer* server_;
  ScoringAppConfig config_;
};

}  // namespace net
}  // namespace dbg4eth

#endif  // DBG4ETH_NET_SCORING_APP_H_
