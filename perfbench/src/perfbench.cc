// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <sha>]
//
// Workloads (the reasons for each are recorded in BENCHMARK.json):
//   cold_open  open-loop Poisson arrivals on POST /v1/score over pipelined
//              loopback connections; every address distinct, so every
//              request takes the cold path.
//   hot_open   the same route with addresses drawn in proportion to their
//              transaction count in the ledger, every drawn address scored
//              before the load, so every request is a cache hit.
//
// --trace 0 measures the end-to-end metrics with the program at its
// shipped defaults. --trace 1 runs the same load, then calls each layer's
// public functions directly on the same inputs under the benchmark's own
// obs::TraceSpans (recorded into a private tracer) for the per-layer
// metrics. Every score is checked bit for bit against an in-process
// MaterializeInstance -> Normalize -> PredictProba reference outside the
// timed window. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/json_util.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbg4eth.h"
#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "eth/appendable_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "features/node_features.h"
#include "graph/build.h"
#include "graph/sampling.h"
#include "loadgen.h"
#include "ml/split.h"
#include "net/client.h"
#include "net/scoring_app.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipelined_client.h"
#include "serve/inference_service.h"
#include "tensor/inference.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

namespace core = dbg4eth::core;
namespace eth = dbg4eth::eth;
namespace graph = dbg4eth::graph;
namespace net = dbg4eth::net;
namespace obs = dbg4eth::obs;
namespace serve = dbg4eth::serve;
using dbg4eth::Result;
using dbg4eth::Status;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Latency percentiles are medians over up to this many consecutive
/// slices of the timed window, each with at least kSliceSamples samples:
/// enough for 10 beyond p95.
constexpr size_t kLatencySlices = 9;
constexpr size_t kSliceSamples = 200;
/// A slice whose p99 generator send lag exceeds this counts as disturbed
/// (the generator itself was held up); the count is printed, and every
/// slice still enters the medians.
constexpr double kDisturbedLagUs = 500.0;
/// Open loops give up on responses this long after the last intended send.
constexpr double kDrainTimeoutSeconds = 60.0;
constexpr const char* kScorePath = "/v1/score";

// ---------------------------------------------------------------- specs --

/// Fixed parameters of one workload. Only --seed varies its inputs.
struct Spec {
  const char* name = nullptr;
  /// Addresses drawn in proportion to their transaction count, each scored
  /// once before the load so every request hits; else all distinct.
  bool hot = false;
  double rate_per_s = 0.0;    ///< Fixed offered rate.
  size_t cache_capacity = 0;  ///< 0 keeps the shipped default.
  /// Fixed latency limit behind slo_ratio.
  double latency_limit_ms = 0.0;
};

/// Untimed lead-in of the load: worker arenas grow to their working size
/// before timing starts.
constexpr double kWarmupS = 0.5;

// Serving-size model (~41 nodes per subgraph), trained during set-up.
constexpr int kTopK = 6;
constexpr int kMaxNodes = 48;
constexpr int kTimeSlices = 6;
constexpr int kHiddenDim = 24;
constexpr int kGsgEpochs = 5;
constexpr int kLdgEpochs = 3;
/// A run whose p99 generator send lag exceeds this is invalid (the
/// generator, not the server, set the pace).
constexpr double kMaxSendLagP99Us = 50000.0;
/// Addresses the traced run calls each layer on.
constexpr size_t kProbeAddresses = 300;
/// The probe appends this many seeded blocks of kBlockTxs transactions.
constexpr int kProbeBlocks = 20;
constexpr int kBlockTxs = 48;

// Offered rates are about a quarter of the HTTP capacity of each path,
// measured on 4 hardware threads (see METRICS.md): ~350 req/s cold and
// ~33.7k req/s on cache hits.
constexpr Spec kSpecs[] = {
    {.name = "cold_open", .rate_per_s = 90.0, .latency_limit_ms = 50.0},
    {.name = "hot_open", .hot = true, .rate_per_s = 8000.0,
     .cache_capacity = 16384, .latency_limit_ms = 20.0},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ----------------------------------------------------------------- args --

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// -------------------------------------------------------------- helpers --

double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// User plus system CPU time of RUSAGE_SELF or RUSAGE_THREAD, seconds.
double CpuSeconds(int who) {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(who, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Lowers the process's resident-memory high-water mark to its current
/// resident size, so PeakRssMb covers only what runs afterwards.
Status ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return Status::Internal("cannot open /proc/self/clear_refs");
  const bool written = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !written) {
    return Status::Internal("cannot reset the RSS high-water mark");
  }
  return Status::OK();
}

/// Resident-memory high-water mark (VmHWM) since start or the last
/// ResetPeakRss, in MB; 0 when /proc is unreadable.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int NumThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Named metrics in insertion order, each with its unit and sample count.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    entries_.push_back({name, value, unit, samples});
  }
  void Print(const char* kind) const {
    for (const Entry& e : entries_) {
      std::printf("%-6s %-32s %16.6f %-7s n=%llu\n", kind, e.name.c_str(),
                  e.value, e.unit.c_str(),
                  static_cast<unsigned long long>(e.samples));
    }
  }
  /// The "metrics" object of the result line.
  std::string ToJson() const {
    std::string out;
    dbg4eth::json::JsonWriter writer(&out);
    writer.BeginObject();
    for (const Entry& e : entries_) {
      writer.Key(e.name);
      writer.BeginObject();
      writer.Key("value");
      writer.NumberRoundTrip(std::isfinite(e.value) ? e.value : 0.0);
      writer.Key("unit");
      writer.String(e.unit);
      writer.EndObject();
    }
    writer.EndObject();
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Entry> entries_;
};

/// Registry histogram `serve_queue_wait_us` (admission-to-worker wait),
/// fed by the program on every batched request.
const obs::Histogram* QueueWaitHistogram() {
  return obs::MetricsRegistry::Global()->HistogramAt(
      "serve_queue_wait_us",
      "Admission-to-worker wait of batched requests, microseconds");
}

/// Nearest-rank quantile of the samples recorded between two snapshots of
/// one histogram: the geometric midpoint of the bucket holding the rank.
double DeltaQuantile(const obs::Histogram::Snapshot& before,
                     const obs::Histogram::Snapshot& after, double q) {
  const uint64_t count = after.count - before.count;
  if (count == 0) return 0.0;
  const auto rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    const uint64_t prior = b < before.buckets.size() ? before.buckets[b] : 0;
    seen += after.buckets[b] - prior;
    if (seen < rank) continue;
    const double upper = after.upper_bounds[b];
    const double lower = b == 0 ? upper / 2 : after.upper_bounds[b - 1];
    return std::isfinite(upper) ? std::sqrt(lower * upper) : lower;
  }
  return after.max;
}

// ---------------------------------------------------------------- setup --

/// Stage timings of one set-up.
struct SetupTimes {
  double ledger_s = 0.0;
  double dataset_s = 0.0;
  double train_s = 0.0;
  double load_ms = 0.0;
  double total_s = 0.0;  ///< Start of set-up to ready for the first request.
};

/// One deployed stack: ledger, trained checkpoint, serving model and the
/// HTTP server with the generator's connections.
struct Deployment {
  std::unique_ptr<eth::LedgerSimulator> ledger;
  eth::SubgraphDataset dataset;  ///< Standardized in place by training.
  dbg4eth::ml::SplitIndices split;
  std::string checkpoint;
  std::unique_ptr<serve::InferenceService> service;
  std::unique_ptr<net::HttpServer> server;
  std::unique_ptr<net::ScoringApp> app;
  std::vector<std::unique_ptr<PipelinedConnection>> connections;

  SetupTimes times;

  ~Deployment() {
    connections.clear();
    // The app must outlive the server's drain; the service outlives both.
    if (server) server->Shutdown();
    server.reset();
    app.reset();
    if (service) service->Shutdown();
  }
};

serve::InferenceServiceConfig ServiceConfig(const Spec& spec) {
  serve::InferenceServiceConfig config;  // Shipped defaults, plus:
  config.sampling.top_k = kTopK;
  config.sampling.max_nodes = kMaxNodes;
  config.num_time_slices = kTimeSlices;
  if (spec.cache_capacity > 0) config.cache.capacity = spec.cache_capacity;
  return config;
}

/// The ledger (and so the trained model) is the same in every run: a fixed
/// chain snapshot. The seed varies the traffic against it.
Result<std::unique_ptr<Deployment>> SetUp(const Spec& spec) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point start = Clock::now();

  eth::LedgerConfig ledger_config;
  ledger_config.num_normal = 12000;
  d->ledger = std::make_unique<eth::LedgerSimulator>(ledger_config);
  DBG4ETH_RETURN_NOT_OK(d->ledger->Generate());
  d->times.ledger_s = SecondsSince(start);

  Clock::time_point stage = Clock::now();
  eth::DatasetConfig ds_config;
  ds_config.target = eth::AccountClass::kExchange;
  ds_config.max_positives = 24;
  ds_config.sampling.top_k = kTopK;
  ds_config.sampling.max_nodes = kMaxNodes;
  ds_config.num_time_slices = kTimeSlices;
  DBG4ETH_ASSIGN_OR_RETURN(d->dataset,
                           eth::BuildDataset(*d->ledger, ds_config));
  d->times.dataset_s = SecondsSince(stage);

  stage = Clock::now();
  core::Dbg4EthConfig model_config;
  model_config.gsg.hidden_dim = kHiddenDim;
  model_config.gsg.epochs = kGsgEpochs;
  model_config.ldg.hidden_dim = kHiddenDim;
  model_config.ldg.epochs = kLdgEpochs;
  core::Dbg4Eth trainer(model_config);
  dbg4eth::Rng split_rng(model_config.seed);
  d->split = dbg4eth::ml::StratifiedSplit(
      d->dataset.labels(), model_config.train_fraction,
      model_config.val_fraction, &split_rng);
  DBG4ETH_RETURN_NOT_OK(trainer.Train(&d->dataset, d->split));
  d->times.train_s = SecondsSince(stage);

  std::stringstream saved;
  DBG4ETH_RETURN_NOT_OK(trainer.Save(&saved));
  d->checkpoint = saved.str();
  stage = Clock::now();
  std::stringstream checkpoint(d->checkpoint);
  DBG4ETH_ASSIGN_OR_RETURN(std::unique_ptr<core::Dbg4Eth> model,
                           core::Dbg4Eth::Load(&checkpoint));
  d->times.load_ms = SecondsSince(stage) * 1e3;

  d->service = std::make_unique<serve::InferenceService>(
      ServiceConfig(spec), std::move(model), d->ledger.get());
  d->server = std::make_unique<net::HttpServer>(net::HttpServerConfig());
  d->app =
      std::make_unique<net::ScoringApp>(d->service.get(), d->server.get());
  DBG4ETH_RETURN_NOT_OK(d->server->Start());
  for (int c = 0; c < NumThreads(); ++c) {
    DBG4ETH_ASSIGN_OR_RETURN(std::unique_ptr<PipelinedConnection> conn,
                             PipelinedConnection::Open(d->server->port()));
    d->connections.push_back(std::move(conn));
  }
  d->times.total_s = SecondsSince(start);
  return d;
}

// --------------------------------------------------------------- inputs --

/// Accounts whose subgraph is never degenerate (>= 2 distinct
/// counterparties, so >= 3 nodes and >= 2 transactions), seeded shuffle.
std::vector<eth::AccountId> ScoreableAddresses(const eth::Ledger& ledger,
                                               uint64_t seed) {
  std::vector<eth::AccountId> out;
  for (const eth::Account& account : ledger.accounts()) {
    if (account.id == ledger.coinbase_id()) continue;
    std::unordered_set<eth::AccountId> peers;
    for (int index : ledger.TransactionsOf(account.id)) {
      const eth::Transaction& tx = ledger.transactions()[index];
      const eth::AccountId peer = tx.from == account.id ? tx.to : tx.from;
      if (peer != account.id) peers.insert(peer);
      if (peers.size() >= 2) break;
    }
    if (peers.size() >= 2) out.push_back(account.id);
  }
  SplitMix64 rng(StreamSeed(seed, "addresses"));
  Shuffle(&out, &rng);
  return out;
}

/// One appended block's transactions.
using Block = std::vector<eth::Transaction>;

/// Seeded blocks of new transactions between existing normal accounts
/// (the labelled hubs would dominate every block's cost), 12 s apart after
/// the ledger tip.
std::vector<Block> MakeBlocks(const eth::Ledger& ledger,
                              const std::vector<eth::AccountId>& scoreable,
                              uint64_t seed, int num_blocks,
                              int txs_per_block) {
  std::vector<eth::AccountId> accounts;
  for (eth::AccountId id : scoreable) {
    if (ledger.accounts()[id].cls == eth::AccountClass::kNormal) {
      accounts.push_back(id);
    }
  }
  SplitMix64 rng(StreamSeed(seed, "blocks"));
  const double tip = ledger.transactions().back().timestamp;
  std::vector<Block> blocks(num_blocks);
  for (int b = 0; b < num_blocks; ++b) {
    for (int t = 0; t < txs_per_block; ++t) {
      eth::Transaction tx;
      tx.from = accounts[rng.Below(accounts.size())];
      do {
        tx.to = accounts[rng.Below(accounts.size())];
      } while (tx.to == tx.from);
      tx.value = 0.01 - std::log(rng.UniformOpenZero()) * 2.0;
      tx.timestamp = tip + 12.0 * (b + 1) + 1e-3 * t;
      blocks[b].push_back(tx);
    }
  }
  return blocks;
}

/// Reference scores: MaterializeInstance -> Normalize -> PredictProba in
/// process, on nproc threads of its own that exit before returning, so
/// their thread-local inference arenas are freed. NaN marks an address
/// that failed.
std::vector<double> ReferenceScores(const eth::Ledger& ledger,
                                    const core::Dbg4Eth& model,
                                    const std::vector<eth::AccountId>& ids) {
  graph::SamplingConfig sampling;
  sampling.top_k = kTopK;
  sampling.max_nodes = kMaxNodes;
  std::vector<double> scores(ids.size(), std::nan(""));
  std::thread([&] {
    dbg4eth::ThreadPool pool(std::max(1, NumThreads() - 1));
    dbg4eth::ParallelFor(&pool, static_cast<int>(ids.size()), [&](int i) {
      auto instance =
          eth::MaterializeInstance(ledger, ids[i], sampling, kTimeSlices);
      if (!instance.ok()) return;
      model.Normalize(&instance.ValueOrDie());
      scores[i] = model.PredictProba(instance.ValueOrDie());
    });
  }).join();
  return scores;
}

// ----------------------------------------------------------------- load --

/// Outcome of one load phase, over its timed window only.
struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Non-200/non-OK, shed, stale, or mismatched.
  uint64_t within_limit = 0;
  std::vector<double> latencies_us;  ///< Answered requests.
  /// Per latency sample: when in the timed window (seconds) its request
  /// was due.
  std::vector<double> latency_at_s;
  /// Per latency sample: how late the generator sent its request.
  std::vector<double> send_lag_us;
  double window_s = 0.0;
  uint64_t correct = 0;
  uint64_t sent = 0;  ///< Requests the generator sent, warm-up included.
  size_t distinct_addresses = 0;  ///< Distinct addresses among all sent.
  double send_lag_p99_us = 0.0;
  /// Resident-memory high-water mark from the start of the load to the end
  /// of the timed window (the reference pass that follows is not the
  /// program's).
  double peak_rss_mb = 0.0;
  /// Untimed preparation before the load: reference pass and cache fill.
  double prepare_s = 0.0;
  /// CPU time the program spent per request sent, warm-up included.
  double cpu_us_per_request = 0.0;
  bool valid = true;
  std::string invalid_reason;
  // Program-side counters over the timed window.
  serve::ServerStats::Snapshot stats_before, stats_after;
  obs::Histogram::Snapshot queue_wait_before, queue_wait_after;
};

/// Verdict of one answered open-loop request against the reference.
bool ResponseCorrect(const ParsedResponse& response, double reference) {
  if (response.status != 200 || std::isnan(reference)) return false;
  auto parsed = dbg4eth::json::ParseJson(response.body);
  if (!parsed.ok()) return false;
  const dbg4eth::json::JsonValue& body = parsed.ValueOrDie();
  const auto* score = body.Find("score");
  const auto* stale = body.Find("stale");
  if (score == nullptr || !score->is_number()) return false;
  if (stale == nullptr || stale->bool_value) return false;
  return SameBits(score->number_value, reference);
}

/// Scores every address once through the service so the cache holds them.
/// One request in flight per worker, as sparse misses arrive: a burst
/// would form large packed batches whose buffers the workers' arenas keep,
/// and resident memory would then depend on the batch mix.
Status FillCache(serve::InferenceService* service,
                 const std::vector<eth::AccountId>& ids) {
  const size_t in_flight = static_cast<size_t>(NumThreads());
  std::vector<std::future<serve::ScoreResult>> pending;
  for (size_t k = 0; k < ids.size(); k += in_flight) {
    pending.clear();
    for (size_t j = k; j < std::min(ids.size(), k + in_flight); ++j) {
      pending.push_back(service->ScoreAsync(ids[j]));
    }
    for (auto& future : pending) {
      if (!future.get().ok()) return Status::Internal("cache fill failed");
    }
  }
  return Status::OK();
}

Result<LoadResult> RunOpenLoopLoad(const Spec& spec, const Args& args,
                                   Deployment* d,
                                   const std::vector<eth::AccountId>& scoreable,
                                   const core::Dbg4Eth& reference_model) {
  // Inputs: arrival schedule and address draws, all from the seed.
  std::vector<double> offsets = PoissonSchedule(
      StreamSeed(args.seed, "warm-up arrivals"), spec.rate_per_s,
      kWarmupS);
  for (double offset :
       PoissonSchedule(StreamSeed(args.seed, "arrivals"), spec.rate_per_s,
                       args.seconds)) {
    offsets.push_back(kWarmupS + offset);
  }
  std::vector<eth::AccountId> draws(offsets.size());
  if (spec.hot) {
    // An account is looked up as often as it transacts: popularity comes
    // from the ledger itself (exchanges and hubs first).
    std::vector<double> weights;
    for (eth::AccountId id : scoreable) {
      weights.push_back(
          static_cast<double>(d->ledger->TransactionsOf(id).size()));
    }
    const WeightedSampler sampler(weights);
    SplitMix64 rng(StreamSeed(args.seed, "draws"));
    for (eth::AccountId& id : draws) id = scoreable[sampler.Draw(&rng)];
  } else {
    if (draws.size() > scoreable.size()) {
      return Status::FailedPrecondition(
          "schedule needs more distinct addresses than the ledger has");
    }
    std::copy_n(scoreable.begin(), draws.size(), draws.begin());
  }
  std::vector<std::string> wires;
  wires.reserve(draws.size());
  for (eth::AccountId id : draws) {
    wires.push_back(PostRequest(
        kScorePath, "{\"address\": " + std::to_string(id) + "}"));
  }
  std::vector<eth::AccountId> distinct;
  std::unordered_map<eth::AccountId, size_t> slot;
  for (eth::AccountId id : draws) {
    if (slot.emplace(id, distinct.size()).second) distinct.push_back(id);
  }

  // Before the load, untimed: the reference scores of every drawn address,
  // while hot_open fills the cache with them (the fill mostly waits on
  // the service's batching window, so the two share the CPUs well).
  const Clock::time_point prepare = Clock::now();
  Status filled = Status::OK();
  std::thread filler;
  if (spec.hot) {
    filler = std::thread([&] { filled = FillCache(d->service.get(), distinct); });
  }
  const std::vector<double> reference =
      ReferenceScores(*d->ledger, reference_model, distinct);
  if (filler.joinable()) filler.join();
  DBG4ETH_RETURN_NOT_OK(filled);
  // peak_rss_mb covers the load only: hand what the set-ups and the
  // reference pass freed back to the kernel, then restart the high-water
  // mark from the memory still in use.
  ::malloc_trim(0);
  DBG4ETH_RETURN_NOT_OK(ResetPeakRss());

  LoadResult result;
  result.prepare_s = SecondsSince(prepare);
  result.distinct_addresses = distinct.size();
  std::vector<RequestOutcome> outcomes;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  // The timed window opens when the warm-up part of the schedule is due;
  // a helper thread snapshots the program's counters at that instant.
  const Clock::time_point window_open =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWarmupS));
  std::thread snapshotter([&] {
    std::this_thread::sleep_until(window_open);
    result.stats_before = d->service->StatsSnapshot();
    result.queue_wait_before = QueueWaitHistogram()->TakeSnapshot();
  });
  // The program's CPU time over the load: the process's, less the
  // generator's (this thread's).
  const double process_cpu_s = CpuSeconds(RUSAGE_SELF);
  const double generator_cpu_s = CpuSeconds(RUSAGE_THREAD);
  const Status run = RunOpenLoop(d->connections, offsets, wires, start,
                                 kDrainTimeoutSeconds, &outcomes);
  result.cpu_us_per_request =
      ((CpuSeconds(RUSAGE_SELF) - process_cpu_s) -
       (CpuSeconds(RUSAGE_THREAD) - generator_cpu_s)) *
      1e6 / static_cast<double>(offsets.size());
  snapshotter.join();
  result.stats_after = d->service->StatsSnapshot();
  result.queue_wait_after = QueueWaitHistogram()->TakeSnapshot();
  result.peak_rss_mb = PeakRssMb();
  DBG4ETH_RETURN_NOT_OK(run);

  std::vector<double> lags;
  double last_done_s = 0.0;
  bool warmup_ok = true;
  const double limit_us = spec.latency_limit_ms * 1e3;
  for (size_t i = 0; i < offsets.size(); ++i) {
    const RequestOutcome& outcome = outcomes[i];
    lags.push_back(outcome.send_lag_us);
    const bool ok = outcome.answered &&
                    ResponseCorrect(outcome.response, reference[slot[draws[i]]]);
    if (offsets[i] < kWarmupS) {
      warmup_ok = warmup_ok && ok;
      continue;
    }
    ++result.attempted;
    if (outcome.answered) {
      result.latencies_us.push_back(outcome.latency_us);
      result.latency_at_s.push_back(offsets[i] - kWarmupS);
      result.send_lag_us.push_back(outcome.send_lag_us);
      last_done_s = std::max(
          last_done_s, offsets[i] - kWarmupS + outcome.latency_us * 1e-6);
    }
    if (!ok) {
      ++result.failed;
      continue;
    }
    ++result.correct;
    if (outcome.latency_us <= limit_us) ++result.within_limit;
  }
  if (!warmup_ok) ++result.failed;  // Any bad warm-up answer fails the run.
  result.sent = offsets.size();
  // The window closes with the last answer, so throughput is measured, not
  // the schedule's fixed count over its fixed length.
  result.window_s = last_done_s;
  result.send_lag_p99_us = Quantile(&lags, 0.99);

  if (result.send_lag_p99_us > kMaxSendLagP99Us) {
    result.valid = false;
    result.invalid_reason = "generator ran late: p99 send lag " +
                            std::to_string(result.send_lag_p99_us) + " us";
  }
  // Every timed request takes the path the workload is about: all cold on
  // cold_open, all cache hits on hot_open.
  const uint64_t hits =
      result.stats_after.cache_hits - result.stats_before.cache_hits;
  const uint64_t requests =
      result.stats_after.requests - result.stats_before.requests;
  if (hits != (spec.hot ? requests : 0)) {
    result.valid = false;
    result.invalid_reason = std::string(spec.name) + " saw " +
                            std::to_string(hits) + " cache hits in " +
                            std::to_string(requests) + " requests";
  }
  return result;
}

// ---------------------------------------------------------------- probe --

/// Per-layer timings from the benchmark's own spans: each call into a
/// layer's public function is one root span in a private tracer, so the
/// program's global tracer and its defaults are untouched.
class LayerProbe {
 public:
  LayerProbe() : tracer_(TracerConfigForProbe()) {}

  /// Runs `fn` under a root span `name` when tracing, bare otherwise.
  template <typename Fn>
  auto Call(const char* name, Fn&& fn) {
    if (!traced_) return fn();
    obs::TraceSpan span(name, &tracer_);
    return fn();
  }
  void set_traced(bool traced) { traced_ = traced; }

  /// Durations (us) of every root span named `name`, in finishing order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const obs::SpanNode& root : roots_) {
      if (root.name == name) out.push_back(root.duration_us);
    }
    return out;
  }
  void Collect() { roots_ = tracer_.Snapshot(); }

 private:
  static obs::TracerConfig TracerConfigForProbe() {
    obs::TracerConfig config;
    config.buffer_capacity = 1 << 20;
    config.retained_capacity = 0;
    config.retain_latency_us = 0.0;
    config.sample_every_n = 1;
    return config;
  }

  obs::Tracer tracer_;
  bool traced_ = false;
  std::vector<obs::SpanNode> roots_;
};

/// Calls each layer directly on the workload's inputs and returns the
/// per-layer metrics. Runs after the load, on an idle machine.
Result<MetricSet> RunLayerProbe(const Spec& spec, Deployment* d,
                                const std::vector<eth::AccountId>& sample,
                                const std::vector<Block>& blocks,
                                const core::Dbg4Eth& model,
                                const LoadResult& load,
                                const std::vector<SetupTimes>& setups) {
  MetricSet m;
  LayerProbe probe;
  const eth::Ledger& ledger = *d->ledger;
  graph::SamplingConfig sampling;
  sampling.top_k = kTopK;
  sampling.max_nodes = kMaxNodes;
  const int slices = kTimeSlices;

  // Encoders built with the served config, one training epoch each.
  core::GsgEncoder gsg(model.config().gsg);
  core::LdgEncoder ldg(model.config().ldg);
  probe.set_traced(true);
  {
    core::GsgEncoder::TrainSession gsg_session(&gsg, &d->dataset,
                                               d->split.train);
    core::LdgEncoder::TrainSession ldg_session(&ldg, &d->dataset,
                                               d->split.train);
    DBG4ETH_RETURN_NOT_OK(
        probe.Call("setup.gsg_epoch", [&] { return gsg_session.RunEpoch(); }));
    DBG4ETH_RETURN_NOT_OK(
        probe.Call("setup.ldg_epoch", [&] { return ldg_session.RunEpoch(); }));
  }

  // Every stage once on one address, traced or bare as `probe` is set.
  auto run_stages = [&](eth::AccountId id, eth::GraphInstance* out) {
    auto sub = probe.Call("graph.sample", [&] {
      return graph::SampleSubgraph(ledger, id, sampling);
    });
    if (!sub.ok()) return sub.status();
    const eth::TxSubgraph& subgraph = sub.ValueOrDie();
    probe.Call("graph.build_gsg",
               [&] { return graph::BuildGlobalStaticGraph(subgraph); });
    probe.Call("graph.build_ldg", [&] {
      return graph::BuildLocalDynamicGraphs(subgraph, slices);
    });
    probe.Call("features.compute", [&] {
      return dbg4eth::features::LogScaleFeatures(
          dbg4eth::features::ComputeNodeFeatures(subgraph));
    });
    auto instance = probe.Call("eth.materialize", [&] {
      return eth::MaterializeInstance(ledger, id, sampling, slices);
    });
    if (!instance.ok()) return instance.status();
    *out = std::move(instance).ValueOrDie();
    probe.Call("features.normalize", [&] {
      model.Normalize(out);
      return 0;
    });
    probe.Call("core.predict_proba", [&] { return model.PredictProba(*out); });
    return Status::OK();
  };
  // One bare warm-up pass, then each address twice per round, once bare
  // and once traced, in alternating order so neither side always runs on
  // the warmer caches. The summed wall-time difference is the tracing
  // overhead.
  std::vector<eth::GraphInstance> instances(sample.size());
  probe.set_traced(false);
  for (size_t i = 0; i < sample.size(); ++i) {
    DBG4ETH_RETURN_NOT_OK(run_stages(sample[i], &instances[i]));
  }
  double bare_s = 0.0, traced_s = 0.0;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < sample.size(); ++i) {
      for (size_t half = 0; half < 2; ++half) {
        const bool traced = (i + round + half) % 2 == 1;
        probe.set_traced(traced);
        const Clock::time_point t0 = Clock::now();
        DBG4ETH_RETURN_NOT_OK(run_stages(sample[i], &instances[i]));
        (traced ? traced_s : bare_s) += SecondsSince(t0);
      }
    }
  }
  std::vector<double> nodes, txs;
  for (const eth::GraphInstance& inst : instances) {
    nodes.push_back(inst.subgraph.num_nodes());
    txs.push_back(static_cast<double>(inst.subgraph.txs.size()));
  }
  // Branch forwards in loops of their own, as many times as PredictProba
  // ran traced: alternating encoders on one thread would keep reshaping
  // its inference arena.
  probe.set_traced(true);
  for (size_t round = 0; round < 2; ++round) {
    for (const eth::GraphInstance& inst : instances) {
      probe.Call("core.gsg_forward",
                 [&] { return gsg.PredictScore(inst.gsg); });
    }
    for (const eth::GraphInstance& inst : instances) {
      probe.Call("core.ldg_forward",
                 [&] { return ldg.PredictScore(inst.ldg); });
    }
  }

  // Packed scoring over groups of 8, checked against solo scoring.
  for (size_t g = 0; g + 8 <= instances.size(); g += 8) {
    std::vector<const eth::GraphInstance*> group;
    for (size_t i = g; i < g + 8; ++i) group.push_back(&instances[i]);
    const std::vector<double> packed = probe.Call(
        "core.predict_batch8", [&] { return model.PredictProbaBatch(group); });
    for (size_t i = 0; i < 8; ++i) {
      if (!SameBits(packed[i], model.PredictProba(*group[i]))) {
        return Status::Internal("packed score differs from solo score");
      }
    }
  }
  // Tape nodes and arena footprint of solo scoring, on a fresh thread as a
  // serving worker would see them: one warm-up pass, one counted pass.
  double autograd_nodes = 0.0, arena_bytes = 0.0;
  std::thread([&] {
    auto score_all = [&] {
      for (const eth::GraphInstance& inst : instances) {
        (void)model.PredictProba(inst);
      }
    };
    score_all();
    const uint64_t before = dbg4eth::ag::internal::NodeAllocationCount();
    score_all();
    autograd_nodes =
        static_cast<double>(dbg4eth::ag::internal::NodeAllocationCount() -
                            before) /
        static_cast<double>(std::max<size_t>(1, instances.size()));
    arena_bytes = static_cast<double>(
        dbg4eth::ag::InferenceArena::ThreadLocal()->owned_bytes());
  }).join();

  // Serving layer on an idle service over a growable copy of the ledger:
  // solo cold scores, then cache hits, then HTTP round trips on hits.
  eth::AppendableLedger probe_ledger(ledger);
  std::stringstream checkpoint(d->checkpoint);
  DBG4ETH_ASSIGN_OR_RETURN(std::unique_ptr<core::Dbg4Eth> served,
                           core::Dbg4Eth::Load(&checkpoint));
  serve::InferenceService service(ServiceConfig(spec), std::move(served),
                                  &probe_ledger);
  std::vector<double> cold_wait_us;  // Each solo cold score's queue wait.
  for (eth::AccountId id : sample) {
    const double waited_before = QueueWaitHistogram()->TakeSnapshot().sum;
    const serve::ScoreResult r =
        probe.Call("serve.cold", [&] { return service.ScoreAsync(id).get(); });
    cold_wait_us.push_back(QueueWaitHistogram()->TakeSnapshot().sum -
                           waited_before);
    if (!r.ok() || r.cache_hit) {
      return Status::Internal("probe cold score failed");
    }
  }
  for (eth::AccountId id : sample) {
    const serve::ScoreResult r =
        probe.Call("serve.hit", [&] { return service.ScoreAsync(id).get(); });
    if (!r.ok() || !r.cache_hit) return Status::Internal("probe hit missed");
  }
  {
    net::HttpServer server{net::HttpServerConfig()};
    net::ScoringApp app(&service, &server);
    DBG4ETH_RETURN_NOT_OK(server.Start());
    net::HttpClient client("127.0.0.1", server.port());
    for (eth::AccountId id : sample) {
      const std::string body = "{\"address\": " + std::to_string(id) + "}";
      auto response = probe.Call("net.roundtrip_hit", [&] {
        return client.Post(kScorePath, body);
      });
      if (!response.ok() || response.ValueOrDie().status != 200) {
        return Status::Internal("probe HTTP round trip failed");
      }
    }
    server.Shutdown();
  }
  // Ingest: the workload's blocks appended one transaction at a time.
  for (const Block& block : blocks) {
    for (const eth::Transaction& tx : block) {
      DBG4ETH_RETURN_NOT_OK(
          probe.Call("eth.append", [&] { return probe_ledger.Append(tx); }));
    }
    probe.Call("serve.refresh_height", [&] {
      service.RefreshLedgerHeight();
      return 0;
    });
  }
  service.Shutdown();
  probe.Collect();

  auto median_of = [&](const char* span) {
    const std::vector<double> v = probe.Durations(span);
    return std::make_pair(Median(v), static_cast<uint64_t>(v.size()));
  };
  auto add_span = [&](const char* metric, const char* span) {
    const auto [value, n] = median_of(span);
    m.Add(metric, value, "us", n);
    return value;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };

  add_span("graph.sample_us", "graph.sample");
  add_span("graph.build_gsg_us", "graph.build_gsg");
  add_span("graph.build_ldg_us", "graph.build_ldg");
  const double materialize = add_span("eth.materialize_us", "eth.materialize");
  add_span("features.compute_us", "features.compute");
  const double normalize =
      add_span("features.normalize_us", "features.normalize");
  m.Add("graph.subgraph_nodes_mean", mean(nodes), "count", nodes.size());
  m.Add("graph.subgraph_txs_mean", mean(txs), "count", txs.size());
  add_span("core.gsg_forward_us", "core.gsg_forward");
  add_span("core.ldg_forward_us", "core.ldg_forward");
  const double predict =
      add_span("core.predict_proba_us", "core.predict_proba");
  {
    // Per call: PredictProba minus the two branch forwards on the same
    // instance, so the difference is not swamped by run-to-run noise.
    const auto p = probe.Durations("core.predict_proba");
    const auto g = probe.Durations("core.gsg_forward");
    const auto l = probe.Durations("core.ldg_forward");
    std::vector<double> head;
    for (size_t i = 0; i < p.size() && i < g.size() && i < l.size(); ++i) {
      head.push_back(p[i] - g[i] - l[i]);
    }
    m.Add("core.calib_head_us", Median(head), "us", head.size());
  }
  const double batch8 =
      add_span("core.predict_batch8_us", "core.predict_batch8");
  m.Add("core.packed_speedup", batch8 > 0 ? 8.0 * predict / batch8 : 0.0, "x",
        probe.Durations("core.predict_batch8").size());
  m.Add("tensor.autograd_nodes_per_score", autograd_nodes, "count",
        instances.size());
  m.Add("tensor.arena_bytes", arena_bytes, "bytes", 1);

  const std::vector<double> cold_total_us = probe.Durations("serve.cold");
  std::vector<double> cold_service_us;
  for (size_t i = 0; i < cold_total_us.size() && i < cold_wait_us.size();
       ++i) {
    cold_service_us.push_back(cold_total_us[i] - cold_wait_us[i]);
  }
  m.Add("serve.cold_us", Median(cold_service_us), "us",
        cold_service_us.size());
  m.Add("serve.cold_with_dispatch_wait_us", Median(cold_total_us), "us",
        cold_total_us.size());
  add_span("serve.hit_us", "serve.hit");
  add_span("net.roundtrip_hit_us", "net.roundtrip_hit");
  add_span("eth.append_us", "eth.append");
  add_span("serve.refresh_height_us", "serve.refresh_height");
  std::printf("probe  stage sum (materialize + normalize + predict) = %.1f us"
              " vs serve.cold_us = %.1f us\n",
              materialize + normalize + predict, Median(cold_service_us));

  // Serving counters of the load's timed window.
  const serve::ServerStats::Snapshot& s0 = load.stats_before;
  const serve::ServerStats::Snapshot& s1 = load.stats_after;
  const uint64_t waits =
      load.queue_wait_after.count - load.queue_wait_before.count;
  m.Add("serve.queue_wait_p50_us",
        DeltaQuantile(load.queue_wait_before, load.queue_wait_after, 0.5), "us",
        waits);
  m.Add("serve.queue_wait_p99_us",
        DeltaQuantile(load.queue_wait_before, load.queue_wait_after, 0.99),
        "us", waits);
  const uint64_t batches = s1.batches - s0.batches;
  const double batched = s1.avg_batch_size * static_cast<double>(s1.batches) -
                         s0.avg_batch_size * static_cast<double>(s0.batches);
  m.Add("serve.batch_size_mean",
        batches > 0 ? batched / static_cast<double>(batches) : 0.0, "count",
        batches);
  const uint64_t hits = s1.cache_hits - s0.cache_hits;
  const uint64_t lookups = s1.requests - s0.requests;
  m.Add("serve.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio",
        lookups);
  m.Add("serve.cache_hits", static_cast<double>(hits), "count", 1);
  m.Add("serve.cache_lookups", static_cast<double>(lookups), "count", 1);
  m.Add("serve.shed", static_cast<double>(s1.shed - s0.shed), "count", 1);
  m.Add("serve.stale_served",
        static_cast<double>(s1.stale_served - s0.stale_served), "count", 1);
  m.Add("serve.retried", static_cast<double>(s1.retried - s0.retried), "count",
        1);
  m.Add("serve.deadline_exceeded",
        static_cast<double>(s1.deadline_exceeded - s0.deadline_exceeded),
        "count", 1);

  // Set-up stages, median over the run's set-ups.
  std::vector<double> ledger_s, dataset_s, train_s, load_ms;
  for (const SetupTimes& s : setups) {
    ledger_s.push_back(s.ledger_s);
    dataset_s.push_back(s.dataset_s);
    train_s.push_back(s.train_s);
    load_ms.push_back(s.load_ms);
  }
  m.Add("setup.ledger_s", Median(ledger_s), "s", ledger_s.size());
  m.Add("setup.dataset_s", Median(dataset_s), "s", dataset_s.size());
  m.Add("setup.train_s", Median(train_s), "s", train_s.size());
  m.Add("setup.gsg_epoch_s", median_of("setup.gsg_epoch").first * 1e-6, "s", 1);
  m.Add("setup.ldg_epoch_s", median_of("setup.ldg_epoch").first * 1e-6, "s", 1);
  m.Add("setup.load_ms", Median(load_ms), "ms", load_ms.size());

  m.Add("loadgen.send_lag_p99_us", load.send_lag_p99_us, "us", load.sent);
  m.Add("loadgen.sent", static_cast<double>(load.sent), "count", 1);
  m.Add("obs.trace_overhead_pct",
        bare_s > 0 ? (traced_s - bare_s) / bare_s * 100.0 : 0.0, "pct", 2);
  return m;
}

// ----------------------------------------------------------------- main --

void PrintTrial(const Spec& spec, const Args& args) {
  std::string out;
  dbg4eth::json::JsonWriter w(&out);
  w.BeginObject();
  w.Key("workload");
  w.String(spec.name);
  w.Key("seed");
  w.UInt(args.seed);
  w.Key("run_seconds");
  w.Number(args.seconds);
  w.Key("trace");
  w.Bool(args.trace);
  w.Key("hardware_threads");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("build_type");
  w.String(PERFBENCH_BUILD_TYPE);
  w.Key("compiler");
  w.String(PERFBENCH_COMPILER);
  w.Key("git_commit");
  w.String(args.commit);
  w.Key("offered_rate_per_s");
  w.Number(spec.rate_per_s);
  w.Key("latency_limit_ms");
  w.Number(spec.latency_limit_ms);
  w.EndObject();
  std::printf("trial  %s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <sha>]\n");
    return 2;
  }
  const Spec* found = FindSpec(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Spec& spec = *found;
  PrintTrial(spec, args);

  // Set up several times; the last deployment serves the load.
  std::unique_ptr<Deployment> deployment;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    deployment.reset();  // Tear the previous stack down first.
    auto set_up = SetUp(spec);
    if (!set_up.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   set_up.status().ToString().c_str());
      return 1;
    }
    deployment = std::move(set_up).ValueOrDie();
    setups.push_back(deployment->times);
    setup_s.push_back(deployment->times.total_s);
  }
  Deployment* d = deployment.get();
  std::printf("info   peak RSS after set-up %.1f MB\n", PeakRssMb());

  // Inputs and the reference model (outside set-up timing).
  const std::vector<eth::AccountId> scoreable =
      ScoreableAddresses(*d->ledger, args.seed);
  std::stringstream checkpoint(d->checkpoint);
  auto loaded = core::Dbg4Eth::Load(&checkpoint);
  if (!loaded.ok()) {
    std::fprintf(stderr, "reference model: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const core::Dbg4Eth& reference_model = *loaded.ValueOrDie();

  Result<LoadResult> loaded_result =
      RunOpenLoopLoad(spec, args, d, scoreable, reference_model);
  if (!loaded_result.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded_result.status().ToString().c_str());
    return 1;
  }
  const LoadResult& load = loaded_result.ValueOrDie();
  if (!load.valid) {
    std::fprintf(stderr, "invalid run: %s\n", load.invalid_reason.c_str());
    return 3;
  }

  std::vector<double> latencies = load.latencies_us;
  const size_t n = latencies.size();
  // Latency percentiles: median over the time slices of each slice's
  // percentile, so one disturbed slice does not set the figure.
  const std::vector<std::vector<size_t>> slices = TimeSlices(
      load.latency_at_s, std::clamp<size_t>(n / kSliceSamples, 1,
                                            kLatencySlices));
  size_t slice_n = n, disturbed = 0;
  for (const std::vector<size_t>& slice : slices) {
    slice_n = std::min(slice_n, slice.size());
    if (SliceQuantile(load.send_lag_us, slice, 0.99) > kDisturbedLagUs) {
      ++disturbed;
    }
  }
  auto sliced = [&](double q) {
    std::vector<double> per_slice;
    for (const std::vector<size_t>& slice : slices) {
      per_slice.push_back(SliceQuantile(latencies, slice, q));
    }
    return Median(per_slice);
  };
  const double p50 = sliced(0.5);
  const double p95 = sliced(0.95);
  if (!SupportsQuantile(slice_n, 0.95)) {
    std::fprintf(stderr, "invalid run: a window slice of %zu latency samples "
                 "leaves fewer than 10 beyond p95\n", slice_n);
    return 3;
  }
  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_s), "s", setup_s.size());
  e2e.Add("peak_rss_mb", load.peak_rss_mb, "MB", 1);
  e2e.Add("latency_p50_ms", p50 * 1e-3, "ms", n);
  e2e.Add("throughput_per_s",
          load.window_s > 0 ? load.correct / load.window_s : 0.0, "1/s",
          load.correct);
  e2e.Add("cpu_us_per_request", load.cpu_us_per_request, "us", load.sent);
  // Printed but not in the result: on a shared host no tail percentile
  // repeats from run to run (see METRICS.md).
  MetricSet extra;
  extra.Add("latency_p95_ms", p95 * 1e-3, "ms", n);
  extra.Add("slo_ratio",
            load.attempted ? static_cast<double>(load.within_limit) /
                                 load.attempted
                           : 0.0,
            "ratio", load.attempted);
  extra.Add("error_ratio",
            load.attempted ? static_cast<double>(load.failed) / load.attempted
                           : 0.0,
            "ratio", load.attempted);
  e2e.Print("e2e");
  extra.Print("e2e");
  std::printf("info   window %.3f s; %zu slices of >= %zu samples, %zu "
              "disturbed (generator p99 send lag > %.0f us); p99 supported "
              "by the 10-beyond rule: %s; reference pass and cache fill "
              "%.1f s\n",
              load.window_s, slices.size(), slice_n, disturbed,
              kDisturbedLagUs, SupportsQuantile(n, 0.99) ? "yes" : "no",
              load.prepare_s);
  std::printf("info   whole window: latency p50 %.3f ms, p90 %.3f ms, p95 "
              "%.3f ms, p99 %.3f ms, max %.3f ms; send lag p99 %.1f us\n",
              Quantile(&latencies, 0.5) * 1e-3,
              Quantile(&latencies, 0.9) * 1e-3,
              Quantile(&latencies, 0.95) * 1e-3,
              Quantile(&latencies, 0.99) * 1e-3,
              Quantile(&latencies, 1.0) * 1e-3, load.send_lag_p99_us);
  {
    const uint64_t hits =
        load.stats_after.cache_hits - load.stats_before.cache_hits;
    const uint64_t lookups =
        load.stats_after.requests - load.stats_before.requests;
    std::printf("info   cache hit ratio %.4f (%llu hits of %llu requests); "
                "%zu distinct addresses in %llu sent\n",
                lookups ? static_cast<double>(hits) / lookups : 0.0,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(lookups),
                load.distinct_addresses,
                static_cast<unsigned long long>(load.sent));
  }

  std::string metrics_json = e2e.ToJson();
  if (args.trace) {
    std::vector<eth::AccountId> sample(
        scoreable.begin(),
        scoreable.begin() + std::min(scoreable.size(), kProbeAddresses));
    const std::vector<Block> blocks =
        MakeBlocks(*d->ledger, scoreable, args.seed, kProbeBlocks, kBlockTxs);
    auto layers = RunLayerProbe(spec, d, sample, blocks, reference_model, load,
                                setups);
    if (!layers.ok()) {
      std::fprintf(stderr, "layer probe failed: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    layers.ValueOrDie().Print("layer");
    metrics_json = layers.ValueOrDie().ToJson();
  }

  const bool correct = load.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(load.attempted),
              static_cast<unsigned long long>(load.failed),
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
