#include "net/scoring_app.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json_util.h"
#include "common/string_util.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/server_stats.h"
#include "serve/types.h"

namespace dbg4eth {
namespace net {

namespace {

/// Renders one ScoreResult (ok or error) as a JSON object.
void WriteScoreResult(const serve::ScoreResult& result,
                      json::JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("address");
  writer->Int(result.address);
  if (result.ok()) {
    writer->Key("score");
    writer->NumberRoundTrip(result.probability);
    writer->Key("probabilities");
    writer->BeginArray();
    writer->NumberRoundTrip(1.0 - result.probability);
    writer->NumberRoundTrip(result.probability);
    writer->EndArray();
    writer->Key("ledger_height");
    writer->UInt(result.ledger_height);
    writer->Key("model_generation");
    writer->UInt(result.model_generation);
    writer->Key("stale");
    writer->Bool(result.stale);
    writer->Key("cache_hit");
    writer->Bool(result.cache_hit);
    writer->Key("retries");
    writer->Int(result.retries);
    if (!result.trace_id.empty()) {
      writer->Key("trace_id");
      writer->String(result.trace_id);
    }
  } else {
    writer->Key("error");
    writer->BeginObject();
    writer->Key("code");
    writer->Int(serve::SuggestedHttpStatus(result.status));
    writer->Key("message");
    writer->String(result.status.ToString());
    writer->EndObject();
  }
  writer->EndObject();
}

}  // namespace

HttpResponse ScoreResponse(const serve::ScoreResult& result) {
  std::string body;
  json::JsonWriter writer(&body);
  WriteScoreResult(result, &writer);
  body += "\n";
  return HttpResponse::Json(serve::SuggestedHttpStatus(result.status),
                            std::move(body));
}

namespace {

/// The /v1/score_batch answer: every result in request order. Partial
/// failures are reported per item; the batch itself is a 200.
HttpResponse BatchResponse(const std::vector<serve::ScoreResult>& results) {
  std::string body;
  json::JsonWriter writer(&body);
  writer.BeginObject();
  writer.Key("results");
  writer.BeginArray();
  size_t failures = 0;
  for (const serve::ScoreResult& result : results) {
    if (!result.ok()) ++failures;
    WriteScoreResult(result, &writer);
  }
  writer.EndArray();
  writer.Key("failures");
  writer.UInt(failures);
  writer.EndObject();
  body += "\n";
  return HttpResponse::Json(200, std::move(body));
}

/// The results of one /v1/score_batch request as they resolve; the item
/// that resolves last answers the request.
struct PendingBatch {
  PendingBatch(size_t size, HttpServer::Responder respond)
      : results(size), remaining(size), respond(std::move(respond)) {}

  std::vector<serve::ScoreResult> results;
  std::atomic<size_t> remaining;
  HttpServer::Responder respond;
};

/// What the metric routes render: the process-wide registry plus the
/// service's own, which holds its `serve_*` request, latency, batch and
/// cache-event families.
obs::RegistryList Registries(const serve::InferenceService& service) {
  return {obs::MetricsRegistry::Global(), &service.metrics()};
}

}  // namespace

ScoringApp::ScoringApp(serve::InferenceService* service, HttpServer* server,
                       const ScoringAppConfig& config)
    : service_(service), server_(server), config_(config) {
  // The score routes never block: they answer from the loop thread, or
  // from the service's worker once a cold pass is done.
  server_->RouteAsync("POST", "/v1/score",
                      [this](const HttpRequest& r,
                             HttpServer::Responder respond) {
                        HandleScore(r, std::move(respond));
                      });
  server_->RouteAsync("POST", "/v1/score_batch",
                      [this](const HttpRequest& r,
                             HttpServer::Responder respond) {
                        HandleScoreBatch(r, std::move(respond));
                      });
  server_->Route("GET", "/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server_->Route("GET", "/healthz",
                 [this](const HttpRequest& r) { return HandleHealthz(r); });
  server_->Route("GET", "/statusz",
                 [this](const HttpRequest& r) { return HandleStatusz(r); });
  // The debug surface is operator tooling, not client API — and
  // /debug/profile lets any caller pin a handler thread for up to
  // kMaxProfileSeconds. Gated so a deployment bound beyond loopback can
  // turn it off; unregistered routes fall through to the server's 404.
  if (config_.expose_debug_routes) {
    server_->Route("GET", "/debug/traces", [this](const HttpRequest& r) {
      return HandleDebugTraces(r);
    });
    server_->Route("GET", "/debug/profile", [this](const HttpRequest& r) {
      return HandleDebugProfile(r);
    });
    server_->Route("GET", "/debug/vars", [this](const HttpRequest& r) {
      return HandleDebugVars(r);
    });
  }
}

bool ScoringApp::ParseDeadline(const HttpRequest& request,
                               int64_t* deadline_us,
                               HttpResponse* error) const {
  *deadline_us = 0;
  const std::string* header = request.FindHeader("x-deadline-us");
  if (header == nullptr) return true;
  char* end = nullptr;
  const long long parsed = std::strtoll(header->c_str(), &end, 10);
  if (end == header->c_str() || *end != '\0' || parsed < 0) {
    *error = HttpResponse::Error(
        400, "x-deadline-us must be a non-negative integer, got '" +
                 *header + "'");
    return false;
  }
  // Zero asks for no deadline.
  *deadline_us = std::min<int64_t>(parsed, kMaxDeadlineUs);
  return true;
}

void ScoringApp::HandleScore(const HttpRequest& request,
                             HttpServer::Responder respond) const {
  int64_t deadline_us = 0;
  HttpResponse error;
  if (!ParseDeadline(request, &deadline_us, &error)) {
    respond(std::move(error));
    return;
  }

  auto parsed = json::ParseJson(request.body);
  if (!parsed.ok()) {
    respond(HttpResponse::Error(400, parsed.status().message()));
    return;
  }
  const json::JsonValue* address = parsed.ValueOrDie().Find("address");
  if (address == nullptr) {
    respond(HttpResponse::Error(400, "body must be {\"address\": N}"));
    return;
  }
  auto id = address->AsInt64();
  if (!id.ok() ||
      id.ValueOrDie() < std::numeric_limits<eth::AccountId>::min() ||
      id.ValueOrDie() > std::numeric_limits<eth::AccountId>::max()) {
    respond(HttpResponse::Error(400, "address must be a 32-bit integer"));
    return;
  }

  // The server resolved and injected the canonical trace id at dispatch;
  // riding it into ScoreAsync stamps the cold path's span tree and the
  // latency exemplar with the id the response header already carries.
  const std::string* trace_id = request.FindHeader("x-trace-id");
  service_->ScoreAsync(
      static_cast<eth::AccountId>(id.ValueOrDie()), deadline_us,
      trace_id != nullptr ? *trace_id : std::string(),
      [respond = std::move(respond)](serve::ScoreResult result) {
        respond(ScoreResponse(result));
      });
}

void ScoringApp::HandleScoreBatch(const HttpRequest& request,
                                  HttpServer::Responder respond) const {
  int64_t deadline_us = 0;
  HttpResponse error;
  if (!ParseDeadline(request, &deadline_us, &error)) {
    respond(std::move(error));
    return;
  }

  auto parsed = json::ParseJson(request.body);
  if (!parsed.ok()) {
    respond(HttpResponse::Error(400, parsed.status().message()));
    return;
  }
  const json::JsonValue* addresses = parsed.ValueOrDie().Find("addresses");
  if (addresses == nullptr || !addresses->is_array()) {
    respond(
        HttpResponse::Error(400, "body must be {\"addresses\": [N, ...]}"));
    return;
  }
  if (addresses->items.size() > config_.max_batch_addresses) {
    respond(HttpResponse::Error(
        413, StrFormat("batch of %zu addresses exceeds limit of %zu",
                       addresses->items.size(),
                       config_.max_batch_addresses)));
    return;
  }
  std::vector<eth::AccountId> ids;
  ids.reserve(addresses->items.size());
  for (const json::JsonValue& item : addresses->items) {
    auto id = item.AsInt64();
    if (!id.ok() ||
        id.ValueOrDie() < std::numeric_limits<eth::AccountId>::min() ||
        id.ValueOrDie() > std::numeric_limits<eth::AccountId>::max()) {
      respond(HttpResponse::Error(400, "addresses must be 32-bit integers"));
      return;
    }
    ids.push_back(static_cast<eth::AccountId>(id.ValueOrDie()));
  }
  if (ids.empty()) {
    respond(BatchResponse({}));
    return;
  }

  // Fan the whole batch out at once so the service's workers score it in
  // parallel; each result lands in its request-order slot. Every item
  // shares the batch request's trace id: one HTTP request, one
  // correlation id.
  const std::string* trace_header = request.FindHeader("x-trace-id");
  const std::string trace_id =
      trace_header != nullptr ? *trace_header : std::string();
  auto batch = std::make_shared<PendingBatch>(ids.size(), std::move(respond));
  for (size_t i = 0; i < ids.size(); ++i) {
    service_->ScoreAsync(
        ids[i], deadline_us, trace_id,
        [batch, i](serve::ScoreResult result) {
          batch->results[i] = std::move(result);
          // acq_rel: the last item sees every other item's slot.
          if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            batch->respond(BatchResponse(batch->results));
          }
        });
  }
}

HttpResponse ScoringApp::HandleMetrics(const HttpRequest& request) {
  // Exemplars are only legal in OpenMetrics — the classic 0.0.4 text
  // parser treats the '#' after a sample value as a parse error and
  // fails the whole scrape — so the dialect is negotiated: scrapers
  // advertising `Accept: application/openmetrics-text` get exemplars
  // plus the `# EOF` trailer, everyone else gets plain 0.0.4 output.
  const std::string* accept = request.FindHeader("accept");
  const obs::ExpositionFormat format =
      accept != nullptr &&
              accept->find("application/openmetrics-text") !=
                  std::string::npos
          ? obs::ExpositionFormat::kOpenMetrics
          : obs::ExpositionFormat::kPrometheusText;
  HttpResponse response = HttpResponse::Text(
      200, obs::TextExposition(Registries(*service_), format));
  response.SetHeader("Content-Type", obs::ExpositionContentType(format));
  return response;
}

HttpResponse ScoringApp::HandleHealthz(const HttpRequest&) {
  return HttpResponse::Text(200, "ok\n");
}

HttpResponse ScoringApp::HandleDebugTraces(const HttpRequest& request) {
  obs::Tracer* tracer = obs::Tracer::Global();

  const std::string wanted_id = QueryParam(request.query, "id");
  std::vector<obs::SpanNode> traces;
  if (!wanted_id.empty()) {
    std::optional<obs::SpanNode> found = tracer->FindTrace(wanted_id);
    if (!found.has_value()) {
      return HttpResponse::Error(404,
                                 "no retained trace with id '" + wanted_id +
                                     "' (traces are sampled; errors and "
                                     "slow requests are always kept)");
    }
    traces.push_back(*std::move(found));
  } else {
    traces = tracer->Snapshot();
    const std::string min_duration = QueryParam(request.query, "min_duration_us");
    if (!min_duration.empty()) {
      char* end = nullptr;
      const double threshold = std::strtod(min_duration.c_str(), &end);
      // Written so NaN, which fails every comparison, is rejected too.
      if (end == min_duration.c_str() || *end != '\0' ||
          !(threshold >= 0)) {
        return HttpResponse::Error(
            400, "min_duration_us must be a non-negative number, got '" +
                     min_duration + "'");
      }
      traces.erase(std::remove_if(traces.begin(), traces.end(),
                                  [threshold](const obs::SpanNode& node) {
                                    return node.duration_us < threshold;
                                  }),
                   traces.end());
    }
    if (QueryParam(request.query, "error") == "1") {
      traces.erase(std::remove_if(traces.begin(), traces.end(),
                                  [](const obs::SpanNode& node) {
                                    return !node.error;
                                  }),
                   traces.end());
    }
  }

  std::string body;
  json::JsonWriter writer(&body);
  writer.BeginObject();
  writer.Key("roots_finished");
  writer.UInt(tracer->roots_finished());
  writer.Key("traces");
  writer.BeginArray();
  for (const obs::SpanNode& node : traces) {
    obs::AppendSpanJson(node, &writer);
  }
  writer.EndArray();
  writer.EndObject();
  body += "\n";
  return HttpResponse::Json(200, std::move(body));
}

HttpResponse ScoringApp::HandleDebugProfile(const HttpRequest& request) {
  double seconds = 1.0;
  const std::string param = QueryParam(request.query, "seconds");
  if (!param.empty()) {
    char* end = nullptr;
    seconds = std::strtod(param.c_str(), &end);
    // Written so NaN, which fails every comparison, is rejected too.
    if (end == param.c_str() || *end != '\0' || !(seconds > 0)) {
      return HttpResponse::Error(
          400, "seconds must be a positive number, got '" + param + "'");
    }
  }
  seconds = std::min(seconds, kMaxProfileSeconds);

  // The capture blocks this handler thread for `seconds` — acceptable
  // because the handler pool has more threads and scoring keeps flowing.
  std::string folded;
  const Status status = obs::Profiler::Global()->ProfileFor(seconds, &folded);
  if (!status.ok()) {
    // One timer per process: a concurrent capture is a client-retryable
    // conflict; an environment with profiling disabled is a 503.
    const bool busy =
        status.message().find("already in progress") != std::string::npos;
    return HttpResponse::Error(busy ? 409 : 503, status.message());
  }
  return HttpResponse::Text(200, std::move(folded));
}

HttpResponse ScoringApp::HandleDebugVars(const HttpRequest&) {
  std::string body = obs::JsonSnapshot(Registries(*service_));
  body += "\n";
  return HttpResponse::Json(200, std::move(body));
}

HttpResponse ScoringApp::HandleStatusz(const HttpRequest&) {
  std::string body;
  json::JsonWriter writer(&body);
  writer.BeginObject();
  writer.Key("service");
  writer.Raw(serve::ServerStats::ToJson(service_->StatsSnapshot()));
  writer.Key("model_generation");
  writer.UInt(service_->model_generation());
  writer.Key("ledger_height");
  writer.UInt(service_->ledger_height());
  writer.Key("http");
  writer.BeginObject();
  writer.Key("address");
  writer.String(server_->address());
  writer.Key("open_connections");
  writer.Int(server_->open_connections());
  writer.Key("requests_served");
  writer.UInt(server_->requests_served());
  writer.EndObject();
  writer.Key("obs");
  writer.Raw(obs::JsonSnapshot(Registries(*service_)));
  writer.EndObject();
  body += "\n";
  return HttpResponse::Json(200, std::move(body));
}

}  // namespace net
}  // namespace dbg4eth
