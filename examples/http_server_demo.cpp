// Scenario: the de-anonymization model served over HTTP. A checkpoint
// directory is the contract between training and serving: on first run
// this demo trains a small exchange identifier and publishes it there;
// on later runs it skips training and serves the existing checkpoint.
// A ModelRegistry watcher polls the same directory, so publishing a new
// generation (e.g. by a retraining job, or by re-running this demo with
// --retrain) hot-swaps the serving model with zero downtime.
//
// Run:  ./build/examples/example_http_server_demo [--port=N] [--ckpt-dir=D]
// Then: curl -s http://127.0.0.1:<port>/healthz
//       curl -s -X POST http://127.0.0.1:<port>/v1/score -d '{"address": 3}'
//       curl -s http://127.0.0.1:<port>/metrics | head
// Stop with SIGINT/SIGTERM: the server drains in-flight requests and the
// process exits 0.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "common/checkpoint_store.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "net/scoring_app.h"
#include "net/server.h"
#include "serve/inference_service.h"
#include "serve/model_registry.h"

using namespace dbg4eth;  // Example code; library code never does this.

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

constexpr int kTimeSlices = 4;

graph::SamplingConfig Sampling() {
  graph::SamplingConfig sampling;
  sampling.top_k = 6;
  sampling.max_nodes = 48;
  return sampling;
}

/// Trains the exchange identifier and returns its Save frame.
bool TrainCheckpoint(const eth::LedgerSimulator& ledger,
                     std::string* checkpoint) {
  eth::DatasetConfig ds_config;
  ds_config.target = eth::AccountClass::kExchange;
  ds_config.max_positives = 16;
  ds_config.sampling = Sampling();
  ds_config.num_time_slices = kTimeSlices;
  auto ds = eth::BuildDataset(ledger, ds_config);
  if (!ds.ok()) return false;
  eth::SubgraphDataset dataset = std::move(ds).ValueOrDie();

  core::Dbg4EthConfig config;
  config.gsg.hidden_dim = 16;
  config.gsg.epochs = 3;
  config.ldg.hidden_dim = 16;
  config.ldg.num_time_slices = kTimeSlices;
  config.ldg.epochs = 2;
  core::Dbg4Eth model(config);
  Rng rng(config.seed);
  const ml::SplitIndices split = ml::StratifiedSplit(
      dataset.labels(), config.train_fraction, config.val_fraction, &rng);
  if (!model.Train(&dataset, split).ok()) return false;

  std::stringstream frame;
  if (!model.Save(&frame).ok()) return false;
  *checkpoint = frame.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;  // Ephemeral by default; read it off the banner.
  std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "dbg4eth_http_demo_ckpt")
          .string();
  bool retrain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = static_cast<uint16_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--ckpt-dir=", 11) == 0) {
      ckpt_dir = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--retrain") == 0) {
      retrain = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--ckpt-dir=D] [--retrain]\n",
                   argv[0]);
      return 2;
    }
  }

  // The ledger is the serving-time context; it must match what the
  // checkpoint was trained against, so it is deterministic (fixed seed).
  eth::LedgerConfig ledger_config;
  ledger_config.num_normal = 800;
  ledger_config.duration_days = 120.0;
  ledger_config.seed = 21;
  eth::LedgerSimulator ledger(ledger_config);
  if (!ledger.Generate().ok()) return 1;

  // --- train-or-load: publish a checkpoint only when the store is empty.
  CheckpointStoreConfig store_config;
  store_config.directory = ckpt_dir;
  store_config.retain = 3;
  auto store = CheckpointStore::Open(store_config);
  if (!store.ok()) {
    std::fprintf(stderr, "checkpoint store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  if (store.ValueOrDie()->LatestGeneration() == 0 || retrain) {
    std::printf("training exchange identifier (first run)...\n");
    std::fflush(stdout);
    std::string checkpoint;
    if (!TrainCheckpoint(ledger, &checkpoint)) return 1;
    auto saved = store.ValueOrDie()->Save([&](std::ostream* os) {
      os->write(checkpoint.data(),
                static_cast<std::streamsize>(checkpoint.size()));
      return os->good() ? Status::OK()
                        : Status::Internal("short checkpoint write");
    });
    if (!saved.ok()) return 1;
    std::printf("published %s\n", saved.ValueOrDie().c_str());
  } else {
    std::printf("serving existing checkpoint generation %llu from %s\n",
                static_cast<unsigned long long>(
                    store.ValueOrDie()->LatestGeneration()),
                ckpt_dir.c_str());
  }

  // --- service over the newest valid checkpoint ---
  auto latest = store.ValueOrDie()->LoadLatestValid();
  if (!latest.ok()) {
    std::fprintf(stderr, "load: %s\n", latest.status().ToString().c_str());
    return 1;
  }
  serve::InferenceServiceConfig serve_config;
  serve_config.num_workers = 4;
  serve_config.cache.capacity = 1024;
  serve_config.sampling = Sampling();
  serve_config.num_time_slices = kTimeSlices;
  std::stringstream payload_stream(latest.ValueOrDie().payload);
  auto created = serve::InferenceService::Create(serve_config,
                                                 &payload_stream, &ledger);
  if (!created.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto& service = *created.ValueOrDie();

  // --- hot-reload watcher on the same checkpoint directory ---
  serve::ModelRegistryConfig registry_config;
  registry_config.store = store_config;
  registry_config.poll_interval_us = 200'000;
  auto registry = serve::ModelRegistry::Create(registry_config,
                                               /*probe=*/nullptr);
  if (!registry.ok()) {
    std::fprintf(stderr, "registry: %s\n",
                 registry.status().ToString().c_str());
    return 1;
  }
  registry.ValueOrDie()->SetSwapCallback(
      [&service](std::shared_ptr<const core::Dbg4Eth> model,
                 uint64_t generation) {
        service.SwapModel(std::move(model), generation);
      });

  // --- HTTP front end ---
  net::HttpServerConfig http_config;
  http_config.port = port;
  // The demo is the place to watch requests flow: one structured line per
  // request, trace id included, correlatable with /debug/traces.
  http_config.access_log = true;
  net::HttpServer server(http_config);
  net::ScoringApp app(&service, &server);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("listening on http://%s (model generation %llu)\n",
              server.address().c_str(),
              static_cast<unsigned long long>(service.model_generation()));
  std::printf("try:  curl -s -X POST http://%s/v1/score -d "
              "'{\"address\": %d}'\n",
              server.address().c_str(),
              ledger.AccountsOfClass(eth::AccountClass::kExchange).front());
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  registry.ValueOrDie()->StopWatcher();
  server.Shutdown();
  std::printf("shut down cleanly (%llu requests served)\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}
