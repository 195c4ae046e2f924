// HTTP scoring throughput over loopback: the epoll server + blocking
// clients, swept across concurrent connections.
//
// For each client count (1/2/4/8) a fresh InferenceService + HttpServer
// stack serves two passes over the same address list:
//   cold  — every request is a distinct (address, height) key: the full
//           parse -> dispatch -> materialize -> forward -> serialize path.
//   warm  — the same addresses again: every score is a cache hit, so the
//           measurement isolates the HTTP layer + cache lookup overhead.
//
// Latencies are measured client-side (request write -> response parsed),
// so they include wire framing, loop scheduling and handler-pool queueing
// — the number a real caller would see. A machine-readable summary goes
// to BENCH_net.json (or the path given as argv[1]).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "net/client.h"
#include "net/scoring_app.h"
#include "net/server.h"
#include "serve/inference_service.h"

namespace dbg4eth {
namespace {

double ScaleFromEnv() {
  const char* scale = std::getenv("DBG4ETH_SCALE");
  return scale ? std::atof(scale) : 1.0;
}

struct Workload {
  eth::LedgerSimulator* ledger = nullptr;
  std::string checkpoint;
  graph::SamplingConfig sampling;
  int num_time_slices = 4;
  std::vector<eth::AccountId> addresses;
};

struct PassResult {
  double seconds = 0.0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  size_t requests = 0;
  size_t errors = 0;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const size_t index = static_cast<size_t>(q * (sorted->size() - 1));
  return (*sorted)[index];
}

/// Drives every address through POST /v1/score from `num_clients`
/// threads, one keep-alive connection each; returns client-side numbers.
PassResult Drive(uint16_t port, const std::vector<eth::AccountId>& addresses,
                 int num_clients) {
  std::vector<std::vector<double>> latencies(num_clients);
  std::vector<size_t> errors(num_clients, 0);
  benchutil::Timer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", port);
      for (size_t i = c; i < addresses.size();
           i += static_cast<size_t>(num_clients)) {
        const std::string body =
            "{\"address\": " + std::to_string(addresses[i]) + "}";
        benchutil::Timer request_timer;
        auto response = client.Post("/v1/score", body);
        if (!response.ok() || response.ValueOrDie().status != 200) {
          ++errors[c];
          continue;
        }
        latencies[c].push_back(request_timer.Seconds() * 1e6);
      }
    });
  }
  for (auto& client : clients) client.join();

  PassResult result;
  result.seconds = timer.Seconds();
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  for (size_t e : errors) result.errors += e;
  result.requests = all.size();
  result.rps = result.seconds > 0 ? all.size() / result.seconds : 0.0;
  result.p50_us = Percentile(&all, 0.50);
  result.p95_us = Percentile(&all, 0.95);
  return result;
}

void PrintPass(const char* label, const PassResult& result) {
  std::printf("    %-5s %5zu req in %6.2fs -> %8.1f req/s   "
              "p50=%9.1fus p95=%9.1fus  (%zu errors)\n",
              label, result.requests, result.seconds, result.rps,
              result.p50_us, result.p95_us, result.errors);
}

void AppendPassJson(std::ofstream* json, const char* key,
                    const PassResult& result) {
  *json << "\"" << key << "\": {\"requests\": " << result.requests
        << ", \"seconds\": " << result.seconds
        << ", \"rps\": " << result.rps << ", \"p50_us\": " << result.p50_us
        << ", \"p95_us\": " << result.p95_us
        << ", \"errors\": " << result.errors << "}";
}

}  // namespace

int Run(const std::string& json_path) {
  benchutil::Timer total;
  benchutil::PrintHeader(
      "HTTP scoring throughput: epoll server swept over concurrent "
      "connections",
      "operational extension (Sec. VI deployment discussion)");
  const double scale = ScaleFromEnv();

  // --- workload: ledger + trained checkpoint + address list ---
  eth::LedgerConfig ledger_config;
  ledger_config.num_normal = static_cast<int>(1000 * scale);
  ledger_config.num_exchange = static_cast<int>(30 * scale);
  ledger_config.num_phish_hack = static_cast<int>(30 * scale);
  ledger_config.duration_days = 120.0;
  ledger_config.seed = 19;
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
  ds_config.max_positives = 20;
  ds_config.sampling = workload.sampling;
  ds_config.num_time_slices = workload.num_time_slices;
  auto ds = eth::BuildDataset(ledger, ds_config);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  eth::SubgraphDataset dataset = std::move(ds).ValueOrDie();

  core::Dbg4EthConfig model_config;
  model_config.gsg.hidden_dim = 16;
  model_config.gsg.epochs = 3;
  model_config.ldg.hidden_dim = 16;
  model_config.ldg.num_time_slices = workload.num_time_slices;
  model_config.ldg.epochs = 2;
  core::Dbg4Eth trainer(model_config);
  Rng rng(model_config.seed);
  const ml::SplitIndices split =
      ml::StratifiedSplit(dataset.labels(), model_config.train_fraction,
                          model_config.val_fraction, &rng);
  if (!trainer.Train(&dataset, split).ok()) return 1;
  std::stringstream checkpoint_stream;
  if (!trainer.Save(&checkpoint_stream).ok()) return 1;
  workload.checkpoint = checkpoint_stream.str();

  for (const eth::Account& account : ledger.accounts()) {
    if (account.id == ledger.coinbase_id()) continue;
    if (account.cls != eth::AccountClass::kNormal ||
        ledger.TransactionsOf(account.id).size() >= 5) {
      workload.addresses.push_back(account.id);
    }
    if (workload.addresses.size() >= static_cast<size_t>(160 * scale)) break;
  }
  std::printf("workload: %zu distinct addresses, %zu-byte checkpoint, "
              "%u hardware threads\n\n",
              workload.addresses.size(), workload.checkpoint.size(),
              std::thread::hardware_concurrency());

  // --- the sweep ---
  const int kClientCounts[] = {1, 2, 4, 8};
  std::vector<std::pair<int, std::pair<PassResult, PassResult>>> sweeps;
  for (int num_clients : kClientCounts) {
    // A fresh stack per level so the cold pass really is cold.
    std::stringstream checkpoint(workload.checkpoint);
    serve::InferenceServiceConfig serve_config;
    serve_config.num_workers = 4;
    serve_config.cache.capacity = 8192;
    serve_config.sampling = workload.sampling;
    serve_config.num_time_slices = workload.num_time_slices;
    auto service =
        serve::InferenceService::Create(serve_config, &checkpoint, &ledger);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    net::HttpServerConfig http_config;
    http_config.num_loops = 2;
    http_config.num_handler_threads = 8;
    net::HttpServer server(http_config);
    net::ScoringApp app(service.ValueOrDie().get(), &server);
    if (Status st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
      return 1;
    }

    std::printf("  %d client connection%s:\n", num_clients,
                num_clients == 1 ? "" : "s");
    const PassResult cold =
        Drive(server.port(), workload.addresses, num_clients);
    PrintPass("cold", cold);
    const PassResult warm =
        Drive(server.port(), workload.addresses, num_clients);
    PrintPass("warm", warm);
    server.Shutdown();
    sweeps.push_back({num_clients, {cold, warm}});
  }

  // --- machine-readable summary ---
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"net_throughput\",\n  \"scale\": " << scale
       << ",\n  \"addresses\": " << workload.addresses.size()
       << ",\n  \"sweeps\": [\n";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    json << "    {\"clients\": " << sweeps[i].first << ", ";
    AppendPassJson(&json, "cold", sweeps[i].second.first);
    json << ", ";
    AppendPassJson(&json, "warm", sweeps[i].second.second);
    json << "}" << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());

  benchutil::PrintFooter(total);
  return 0;
}

}  // namespace dbg4eth

int main(int argc, char** argv) {
  return dbg4eth::Run(argc > 1 ? argv[1] : "BENCH_net.json");
}
