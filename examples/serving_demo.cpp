// Scenario: an exchange compliance desk runs the de-anonymization model as
// an online service. The model is trained and checkpointed offline; the
// serving layer loads the checkpoint and scores addresses concurrently as
// requests arrive, spreading them over its worker threads (duplicates in
// flight share one forward pass) and caching results keyed by (address,
// ledger height).
//
// This demo trains a small exchange identifier, saves it, stands up an
// InferenceService on the checkpoint, hammers it from several client
// threads (with repeats, so the cache gets exercised), and prints the
// ServerStats operational report followed by the process-wide and the
// service's own metrics in Prometheus text exposition format (the same
// dump a scrape endpoint would serve).
//
// Run: ./build/examples/example_serving_demo
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "obs/export.h"
#include "serve/inference_service.h"

using namespace dbg4eth;  // Example code; library code never does this.

int main() {
  // --- offline: ledger, dataset, training, checkpoint ---
  eth::LedgerConfig ledger_config;
  ledger_config.num_normal = 1200;
  ledger_config.duration_days = 150.0;
  ledger_config.seed = 21;
  eth::LedgerSimulator ledger(ledger_config);
  if (!ledger.Generate().ok()) return 1;

  eth::DatasetConfig ds_config;
  ds_config.target = eth::AccountClass::kExchange;
  ds_config.max_positives = 30;
  ds_config.sampling.top_k = 6;
  ds_config.sampling.max_nodes = 48;
  ds_config.num_time_slices = 6;
  auto ds = eth::BuildDataset(ledger, ds_config);
  if (!ds.ok()) return 1;
  eth::SubgraphDataset dataset = std::move(ds).ValueOrDie();

  core::Dbg4EthConfig model_config;
  model_config.gsg.hidden_dim = 24;
  model_config.gsg.epochs = 6;
  model_config.ldg.hidden_dim = 24;
  model_config.ldg.epochs = 4;
  core::Dbg4Eth trainer(model_config);
  Rng rng(model_config.seed);
  const ml::SplitIndices split =
      ml::StratifiedSplit(dataset.labels(), model_config.train_fraction,
                          model_config.val_fraction, &rng);
  if (!trainer.Train(&dataset, split).ok()) return 1;

  std::stringstream checkpoint;
  if (!trainer.Save(&checkpoint).ok()) return 1;
  std::printf("trained exchange identifier, checkpoint = %zu bytes\n\n",
              checkpoint.str().size());

  // --- online: serving layer over the checkpoint ---
  serve::InferenceServiceConfig serve_config;
  serve_config.num_workers = 4;
  serve_config.cache.capacity = 1024;
  serve_config.sampling = ds_config.sampling;
  serve_config.num_time_slices = ds_config.num_time_slices;
  auto created =
      serve::InferenceService::Create(serve_config, &checkpoint, &ledger);
  if (!created.ok()) {
    std::fprintf(stderr, "service: %s\n", created.status().ToString().c_str());
    return 1;
  }
  auto& service = *created.ValueOrDie();

  // Addresses worth scoring: every labeled account class.
  std::vector<eth::AccountId> addresses;
  for (auto cls :
       {eth::AccountClass::kExchange, eth::AccountClass::kIcoWallet,
        eth::AccountClass::kMining, eth::AccountClass::kPhishHack,
        eth::AccountClass::kBridge, eth::AccountClass::kDefi}) {
    for (eth::AccountId id : ledger.AccountsOfClass(cls)) {
      addresses.push_back(id);
    }
  }
  std::printf("serving %zu candidate addresses with %d workers...\n",
              addresses.size(), serve_config.num_workers);

  // N client threads, each sweeping the address list twice (the second
  // sweep should be nearly all cache hits).
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &addresses, c] {
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (size_t i = c; i < addresses.size(); i += kClients) {
          (void)service.Score(addresses[i]);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // A few headline scores: top suspected exchanges.
  std::printf("\nsample scores (P(exchange)):\n");
  int shown = 0;
  for (eth::AccountId id : ledger.AccountsOfClass(eth::AccountClass::kExchange)) {
    const serve::ScoreResult result = service.Score(id);
    if (!result.ok()) continue;
    std::printf("  account %-6d -> %.3f%s\n", id, result.probability,
                result.cache_hit ? "  (cached)" : "");
    if (++shown >= 5) break;
  }

  std::printf("\n--- ServerStats ---\n%s\n",
              serve::ServerStats::ToJson(service.StatsSnapshot()).c_str());
  service.Shutdown();

  // Everything recorded — the service's request, latency and cache-event
  // families, the global queue-wait histogram, training phase timings
  // from the offline phase above — in Prometheus text exposition format.
  std::printf("\n--- metrics (text exposition) ---\n%s",
              obs::TextExposition({obs::MetricsRegistry::Global(),
                                   &service.metrics()})
                  .c_str());
  return 0;
}
