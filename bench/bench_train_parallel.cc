// Thread-sweep benchmark of the intra-batch data-parallel trainer: runs
// the full DBG4ETH Train+Evaluate pipeline at 1/2/4/8 worker threads on a
// fixed synthetic workload and reports steps/sec-style wall times, the
// speedup against the 1-thread run of the same sweep, and the test F1 of
// every run (the parallel trainer is bit-deterministic, so F1 must not
// move across thread counts).
//
// Writes a machine-readable summary to BENCH_train_parallel.json (or the
// path given as argv[1]).
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"

namespace dbg4eth {
namespace {

// Seed-revision test F1 for this exact workload (same ledger, dataset,
// and hyperparameters; pre-substrate kernels, serial trainer). Training is
// deterministic, so unlike a wall time it does not depend on the host.
constexpr double kSeedBaselineF1 = 0.954;

eth::LedgerConfig BenchLedgerConfig() {
  eth::LedgerConfig config;
  config.num_normal = 1200;
  config.num_exchange = 56;
  config.num_phish_hack = 40;
  config.duration_days = 120.0;
  config.seed = 33;
  return config;
}

eth::DatasetConfig BenchDatasetConfig() {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kExchange;
  config.max_positives = 48;
  config.sampling.top_k = 8;
  config.sampling.max_nodes = 72;
  config.num_time_slices = 6;
  return config;
}

core::Dbg4EthConfig BenchModelConfig(int num_threads) {
  core::Dbg4EthConfig config;
  config.gsg.hidden_dim = 24;
  config.gsg.epochs = 8;
  config.gsg.batch_size = 16;
  config.gsg.num_threads = num_threads;
  config.ldg.hidden_dim = 24;
  config.ldg.epochs = 5;
  config.ldg.num_time_slices = 6;
  // The LDG trainer only fans out within a batch; batch_size=8 keeps the
  // gradient averaging mild while giving every worker an instance.
  config.ldg.batch_size = num_threads > 1 ? 8 : 1;
  config.ldg.num_threads = num_threads;
  return config;
}

struct SweepPoint {
  int threads = 1;
  double seconds = 0.0;
  double f1 = 0.0;
  double auc = 0.0;
};

}  // namespace
}  // namespace dbg4eth

int main(int argc, char** argv) {
  using namespace dbg4eth;
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_train_parallel.json";

  benchutil::Timer total;
  benchutil::PrintHeader("Parallel training substrate: thread sweep",
                         "Sec. IV training loop (perf substrate)");

  eth::LedgerSimulator ledger(BenchLedgerConfig());
  DBG4ETH_CHECK(ledger.Generate().ok());
  auto built = eth::BuildDataset(ledger, BenchDatasetConfig());
  DBG4ETH_CHECK(built.ok());
  const eth::SubgraphDataset dataset = std::move(built).ValueOrDie();
  std::printf("dataset: %d graphs (%d positive), avg %.1f nodes\n\n",
              dataset.num_graphs(), dataset.num_positives(),
              dataset.avg_nodes());

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<SweepPoint> sweep;
  for (int threads : {1, 2, 4, 8}) {
    eth::SubgraphDataset copy = dataset;  // Train standardizes in place.
    core::Dbg4Eth model(BenchModelConfig(threads));
    benchutil::Timer timer;
    auto report = model.TrainAndEvaluate(&copy);
    const double seconds = timer.Seconds();
    DBG4ETH_CHECK(report.ok());
    SweepPoint point;
    point.threads = threads;
    point.seconds = seconds;
    point.f1 = report.ValueOrDie().metrics.f1;
    point.auc = report.ValueOrDie().auc;
    sweep.push_back(point);
    std::printf(
        "threads=%d  train+eval %.3fs  speedup vs 1-thread %.2fx  "
        "f1=%.3f auc=%.3f\n",
        threads, seconds, sweep.front().seconds / seconds, point.f1,
        point.auc);
  }

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"workload\": \"exchange-identification, 96 graphs, "
          "gsg(h24,e8,b16) + ldg(h24,e5)\",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"seed_baseline_f1\": " << kSeedBaselineF1 << ",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json << "    {\"threads\": " << p.threads
         << ", \"seconds\": " << p.seconds
         << ", \"speedup_vs_1thread\": " << sweep.front().seconds / p.seconds
         << ", \"f1\": " << p.f1 << ", \"auc\": " << p.auc << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote %s\n", json_path.c_str());

  benchutil::PrintFooter(total);
  return 0;
}
