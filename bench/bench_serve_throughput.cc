// Throughput and latency of the serving layer vs. sequential scoring.
//
// Three measurements:
//   1. Sequential baseline: one thread, direct materialize + normalize +
//      PredictProba per address (no workers, no queue, no cache).
//   2. Cold serving throughput across 1/2/4/8 workers: every request is a
//      distinct (address, height) key, so the cache never hits and each
//      request pays the full subgraph + forward-pass cost. Aggregate
//      speedup tracks available hardware threads.
//   3. Warm pass over the same addresses: every request is a cache hit;
//      compares hit latency against the cold path (expected >= 10x lower).
//
// p50/p95/p99 latencies come from ServerStats' shared obs::Histogram
// instruments. A machine-readable summary goes to BENCH_serve.json (or
// the path given as argv[1]).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/dbg4eth.h"
#include "eth/appendable_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "serve/inference_service.h"

namespace dbg4eth {
namespace {

double ScaleFromEnv() {
  const char* scale = std::getenv("DBG4ETH_SCALE");
  return scale ? std::atof(scale) : 1.0;
}

struct Workload {
  eth::LedgerSimulator* ledger;
  std::string checkpoint;
  graph::SamplingConfig sampling;
  int num_time_slices = 6;
  std::vector<eth::AccountId> addresses;
};

serve::InferenceServiceConfig MakeServeConfig(const Workload& workload,
                                              int workers) {
  serve::InferenceServiceConfig config;
  config.num_workers = workers;
  config.cache.capacity = 8192;
  config.sampling = workload.sampling;
  config.num_time_slices = workload.num_time_slices;
  return config;
}

/// Drives `addresses` through the service from 8 client threads; returns
/// elapsed seconds.
double Drive(serve::InferenceService* service,
             const std::vector<eth::AccountId>& addresses) {
  constexpr int kClients = 8;
  benchutil::Timer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([service, &addresses, c] {
      std::vector<std::future<serve::ScoreResult>> pending;
      for (size_t i = c; i < addresses.size(); i += kClients) {
        // Per-request trace ids, as a production caller would send: the
        // measured path includes context stamping and exemplar capture.
        pending.push_back(service->ScoreAsync(
            addresses[i], /*deadline_us=*/0,
            "bench-" + std::to_string(c) + "-" + std::to_string(i)));
      }
      for (auto& future : pending) (void)future.get();
    });
  }
  for (auto& client : clients) client.join();
  return timer.Seconds();
}

void PrintLatency(const char* label,
                  const serve::ServerStats::LatencySummary& summary) {
  std::printf("    %-5s n=%-6llu p50=%9.1fus p95=%9.1fus p99=%9.1fus "
              "mean=%9.1fus\n",
              label, static_cast<unsigned long long>(summary.count),
              summary.p50_us, summary.p95_us, summary.p99_us,
              summary.mean_us);
}

/// One measured latency distribution for the JSON summary.
void AppendLatencyJson(std::ofstream* json, const char* key,
                       const serve::ServerStats::LatencySummary& summary) {
  *json << "\"" << key << "\": {\"count\": " << summary.count
        << ", \"p50_us\": " << summary.p50_us
        << ", \"p95_us\": " << summary.p95_us
        << ", \"p99_us\": " << summary.p99_us
        << ", \"mean_us\": " << summary.mean_us << "}";
}

}  // namespace

int Run(const std::string& json_path) {
  benchutil::Timer total;
  benchutil::PrintHeader(
      "Serving-layer throughput: sequential vs multi-worker + cached",
      "operational extension (Sec. VI deployment discussion)");
  const double scale = ScaleFromEnv();

  // --- workload: ledger + trained checkpoint + address list ---
  eth::LedgerConfig ledger_config;
  ledger_config.num_normal = static_cast<int>(1500 * scale);
  ledger_config.num_exchange = static_cast<int>(40 * scale);
  ledger_config.num_phish_hack = static_cast<int>(50 * scale);
  ledger_config.duration_days = 120.0;
  ledger_config.seed = 33;
  eth::LedgerSimulator ledger(ledger_config);
  if (Status st = ledger.Generate(); !st.ok()) {
    std::fprintf(stderr, "ledger generation failed (bad DBG4ETH_SCALE?): %s\n",
                 st.ToString().c_str());
    return 1;
  }

  Workload workload;
  workload.ledger = &ledger;
  workload.sampling.top_k = 6;
  workload.sampling.max_nodes = 48;

  eth::DatasetConfig ds_config;
  ds_config.target = eth::AccountClass::kExchange;
  ds_config.max_positives = 24;
  ds_config.sampling = workload.sampling;
  ds_config.num_time_slices = workload.num_time_slices;
  auto ds = eth::BuildDataset(ledger, ds_config);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  eth::SubgraphDataset dataset = std::move(ds).ValueOrDie();

  core::Dbg4EthConfig model_config;
  model_config.gsg.hidden_dim = 24;
  model_config.gsg.epochs = 5;
  model_config.ldg.hidden_dim = 24;
  model_config.ldg.epochs = 3;
  core::Dbg4Eth trainer(model_config);
  Rng rng(model_config.seed);
  const ml::SplitIndices split =
      ml::StratifiedSplit(dataset.labels(), model_config.train_fraction,
                          model_config.val_fraction, &rng);
  if (!trainer.Train(&dataset, split).ok()) return 1;
  std::stringstream checkpoint_stream;
  if (!trainer.Save(&checkpoint_stream).ok()) return 1;
  workload.checkpoint = checkpoint_stream.str();

  // Cold request stream: distinct scoreable addresses (labeled classes
  // plus active normal users), deduped — every request misses the cache.
  for (const eth::Account& account : ledger.accounts()) {
    if (account.id == ledger.coinbase_id()) continue;
    if (account.cls != eth::AccountClass::kNormal ||
        ledger.TransactionsOf(account.id).size() >= 5) {
      workload.addresses.push_back(account.id);
    }
    if (workload.addresses.size() >= static_cast<size_t>(240 * scale)) break;
  }
  std::printf("workload: %zu distinct addresses, %zu-byte checkpoint, "
              "%u hardware threads\n\n",
              workload.addresses.size(), workload.checkpoint.size(),
              std::thread::hardware_concurrency());

  // --- 1. sequential baseline ---
  auto loaded_stream = std::stringstream(workload.checkpoint);
  auto loaded = core::Dbg4Eth::Load(&loaded_stream);
  if (!loaded.ok()) return 1;
  const auto& model = loaded.ValueOrDie();
  int sequential_ok = 0;
  benchutil::Timer seq_timer;
  for (eth::AccountId address : workload.addresses) {
    auto instance = eth::MaterializeInstance(
        ledger, address, workload.sampling, workload.num_time_slices);
    if (!instance.ok()) continue;
    model->Normalize(&instance.ValueOrDie());
    (void)model->PredictProba(instance.ValueOrDie());
    ++sequential_ok;
  }
  const double seq_seconds = seq_timer.Seconds();
  const double seq_rps = sequential_ok / seq_seconds;
  std::printf("sequential baseline: %d scored in %.2fs -> %.1f req/s\n\n",
              sequential_ok, seq_seconds, seq_rps);

  // --- 2. cold serving throughput across worker counts ---
  std::printf("cold serving throughput (8 client threads, distinct "
              "addresses, empty cache):\n");
  double one_worker_rps = 0.0;
  double cold_p50_at_8 = 0.0;
  struct ColdPoint {
    int workers = 0;
    double req_per_s = 0.0;
    serve::ServerStats::LatencySummary latency;
  };
  std::vector<ColdPoint> cold_points;
  for (int workers : {1, 2, 4, 8}) {
    auto stream = std::stringstream(workload.checkpoint);
    auto created = serve::InferenceService::Create(
        MakeServeConfig(workload, workers), &stream, &ledger);
    if (!created.ok()) return 1;
    auto& service = *created.ValueOrDie();
    const double seconds = Drive(&service, workload.addresses);
    const serve::ServerStats::Snapshot stats = service.StatsSnapshot();
    const double rps =
        static_cast<double>(stats.requests + stats.errors) / seconds;
    if (workers == 1) one_worker_rps = rps;
    if (workers == 8) cold_p50_at_8 = stats.cold.p50_us;
    std::printf("  workers=%d: %.2fs -> %7.1f req/s  (%.2fx vs 1 worker, "
                "%.2fx vs sequential)  requests/pass=%.2f\n",
                workers, seconds, rps,
                one_worker_rps > 0 ? rps / one_worker_rps : 1.0,
                rps / seq_rps, stats.avg_batch_size);
    PrintLatency("cold", stats.cold);
    cold_points.push_back(ColdPoint{workers, rps, stats.cold});
    service.Shutdown();
  }
  std::printf("  note: cold scoring is CPU-bound; the speedup ceiling is "
              "min(workers, hardware threads).\n\n");

  // --- 3. cache-hit path on a warm service ---
  std::printf("cache-hit path (same addresses, warm cache, 8 workers):\n");
  auto stream = std::stringstream(workload.checkpoint);
  auto created = serve::InferenceService::Create(
      MakeServeConfig(workload, 8), &stream, &ledger);
  if (!created.ok()) return 1;
  auto& service = *created.ValueOrDie();
  (void)Drive(&service, workload.addresses);  // Warm-up: fills the cache.
  (void)Drive(&service, workload.addresses);  // Measured: all hits.
  const serve::ServerStats::Snapshot stats = service.StatsSnapshot();
  PrintLatency("cold", stats.cold);
  PrintLatency("hit", stats.hit);
  const double cold_p50 =
      stats.cold.p50_us > 0 ? stats.cold.p50_us : cold_p50_at_8;
  if (stats.hit.p50_us > 0) {
    std::printf("  cache-hit p50 is %.1fx lower than cold p50\n",
                cold_p50 / stats.hit.p50_us);
  }
  std::printf("  cache events:");
  for (const auto& family : service.metrics().TakeSnapshot()) {
    if (family.name != "serve_cache_events_total") continue;
    for (const auto& inst : family.instruments) {
      std::printf(" %s %llu", inst.labels.c_str(),
                  static_cast<unsigned long long>(inst.counter_value));
    }
  }
  std::printf("\n");
  service.Shutdown();

  // --- 4. degraded mode: stale serving under overload ---
  // A small admission queue is flooded at a freshly-advanced ledger
  // height: overflow requests cannot be admitted and degrade to the stale
  // corpus (the scores cached at the previous height) instead of being
  // shed. The stale path runs entirely on the client thread — a cache
  // probe plus a shard scan — so its latency sits between a cache hit and
  // a cold score.
  std::printf("\ndegraded mode (stale serving at the previous ledger height, "
              "saturated queue):\n");
  eth::AppendableLedger growable(ledger);
  serve::InferenceServiceConfig degraded_config = MakeServeConfig(workload, 8);
  // The flood backs up in the admission queue while every worker is busy.
  degraded_config.queue_capacity = 64;
  auto degraded_stream = std::stringstream(workload.checkpoint);
  auto degraded_created = serve::InferenceService::Create(
      degraded_config, &degraded_stream, &growable);
  if (!degraded_created.ok()) return 1;
  auto& degraded = *degraded_created.ValueOrDie();
  // Warm until every admitted address is cached at the current height;
  // overflow during warm-up sheds (no stale corpus exists yet), so a few
  // passes are needed to fill the cache.
  for (int pass = 0; pass < 5; ++pass) {
    (void)Drive(&degraded, workload.addresses);
  }
  // The chain advances: every cached entry becomes the stale corpus.
  eth::Transaction tip = growable.transactions().back();
  tip.timestamp += 1.0;
  if (!growable.Append(tip).ok()) return 1;
  degraded.RefreshLedgerHeight();
  const double degraded_seconds = Drive(&degraded, workload.addresses);
  const serve::ServerStats::Snapshot dstats = degraded.StatsSnapshot();
  std::printf("  flood at new height: %.2fs  stale_served=%llu shed=%llu "
              "deadline_exceeded=%llu\n",
              degraded_seconds,
              static_cast<unsigned long long>(dstats.stale_served),
              static_cast<unsigned long long>(dstats.shed),
              static_cast<unsigned long long>(dstats.deadline_exceeded));
  PrintLatency("stale", dstats.stale);
  if (dstats.stale.count == 0) {
    std::printf("  (queue never saturated at this scale; no degraded serving "
                "triggered — raise DBG4ETH_SCALE)\n");
  }
  if (dstats.stale.p50_us > 0 && dstats.cold.p50_us > 0) {
    std::printf("  stale p50 is %.1fx lower than cold p50\n",
                dstats.cold.p50_us / dstats.stale.p50_us);
  }
  degraded.Shutdown();

  // --- machine-readable summary ---
  std::ofstream json(json_path);
  json << "{\n  \"benchmark\": \"serve_throughput\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"num_addresses\": " << workload.addresses.size() << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"sequential_req_per_s\": " << seq_rps << ",\n"
       << "  \"cold\": [\n";
  for (size_t i = 0; i < cold_points.size(); ++i) {
    const ColdPoint& point = cold_points[i];
    json << "    {\"workers\": " << point.workers
         << ", \"req_per_s\": " << point.req_per_s
         << ", \"speedup_vs_sequential\": " << point.req_per_s / seq_rps
         << ", ";
    AppendLatencyJson(&json, "latency", point.latency);
    json << (i + 1 < cold_points.size() ? "},\n" : "}\n");
  }
  json << "  ],\n  ";
  AppendLatencyJson(&json, "hit", stats.hit);
  json << ",\n  ";
  AppendLatencyJson(&json, "stale", dstats.stale);
  json << ",\n  \"stale_served\": " << dstats.stale_served
       << ",\n  \"shed\": " << dstats.shed << "\n}\n";
  json.close();
  std::printf("\nwrote %s\n", json_path.c_str());

  benchutil::PrintFooter(total);
  return 0;
}

}  // namespace dbg4eth

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  return dbg4eth::Run(json_path);
}
