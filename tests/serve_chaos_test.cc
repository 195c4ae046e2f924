// Fault-injection ("chaos") tests: drive the serving layer's retry,
// degraded-mode and shutdown paths by injecting failures at the
// DBG4ETH_FAIL_POINT sites, which every build compiles in. These tests are
// built into their own ctest target (label "tier1_chaos": part of the
// tier-1 gate, and selected by `ctest -L chaos`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <filesystem>

#include "common/checkpoint_store.h"
#include "common/failpoint.h"
#include "core/dbg4eth.h"
#include "serve/model_registry.h"
#include "eth/appendable_ledger.h"
#include "eth/csv_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "serve/inference_service.h"

namespace dbg4eth {
namespace serve {
namespace {

/// Same shared workload as serve_integration_test: one ledger, one small
/// trained model.
class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eth::LedgerConfig lc;
    lc.num_normal = 600;
    lc.num_exchange = 14;
    lc.num_ico_wallet = 10;
    lc.num_mining = 8;
    lc.num_phish_hack = 14;
    lc.num_bridge = 8;
    lc.num_defi = 8;
    lc.duration_days = 90.0;
    lc.seed = 77;
    ledger_ = new eth::LedgerSimulator(lc);
    ASSERT_TRUE(ledger_->Generate().ok());

    eth::DatasetConfig dc;
    dc.target = eth::AccountClass::kExchange;
    dc.max_positives = 12;
    dc.sampling = Sampling();
    dc.num_time_slices = kTimeSlices;
    dc.seed = 5;
    auto ds = eth::BuildDataset(*ledger_, dc);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();

    core::Dbg4EthConfig config;
    config.gsg.hidden_dim = 12;
    config.gsg.num_heads = 2;
    config.gsg.epochs = 3;
    config.gsg.batch_size = 8;
    config.ldg.hidden_dim = 12;
    config.ldg.num_time_slices = kTimeSlices;
    config.ldg.first_level_clusters = 4;
    config.ldg.epochs = 2;
    model_ = new core::Dbg4Eth(config);
    Rng rng(config.seed);
    auto& dataset = ds.ValueOrDie();
    const ml::SplitIndices split = ml::StratifiedSplit(
        dataset.labels(), config.train_fraction, config.val_fraction, &rng);
    ASSERT_TRUE(model_->Train(&dataset, split).ok());

    std::stringstream checkpoint;
    ASSERT_TRUE(model_->Save(&checkpoint).ok());
    checkpoint_ = new std::string(checkpoint.str());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete ledger_;
    delete checkpoint_;
    model_ = nullptr;
    ledger_ = nullptr;
    checkpoint_ = nullptr;
  }

  void TearDown() override { failpoint::DisableAll(); }

  static graph::SamplingConfig Sampling() {
    graph::SamplingConfig sampling;
    sampling.top_k = 5;
    sampling.max_nodes = 40;
    return sampling;
  }

  static InferenceServiceConfig ServiceConfig(int workers) {
    InferenceServiceConfig config;
    config.num_workers = workers;
    config.cache.capacity = 256;
    config.cache.num_shards = 4;
    config.sampling = Sampling();
    config.num_time_slices = kTimeSlices;
    config.retry_backoff_us = 100;
    return config;
  }

  static std::unique_ptr<InferenceService> MakeService(
      const InferenceServiceConfig& config, const eth::Ledger* ledger) {
    std::stringstream checkpoint(*checkpoint_);
    auto created = InferenceService::Create(config, &checkpoint, ledger);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).ValueOrDie();
  }

  static constexpr int kTimeSlices = 4;
  static eth::LedgerSimulator* ledger_;
  static core::Dbg4Eth* model_;
  static std::string* checkpoint_;
};

eth::LedgerSimulator* ServeChaosTest::ledger_ = nullptr;
core::Dbg4Eth* ServeChaosTest::model_ = nullptr;
std::string* ServeChaosTest::checkpoint_ = nullptr;

TEST_F(ServeChaosTest, RetryRecoversFromTransientColdFailure) {
  auto service = MakeService(ServiceConfig(/*workers=*/1), ledger_);
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);

  // Evaluations 2, 4, ... fail. With one worker and sequential requests:
  // the first cold score passes on evaluation 1; the second fails on
  // evaluation 2, retries, and succeeds on evaluation 3.
  ASSERT_TRUE(
      failpoint::Enable("serve.score_cold", failpoint::EveryNth(2)).ok());

  const ScoreResult first = service->Score(exchanges[0]);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(first.retries, 0);

  const ScoreResult second = service->Score(exchanges[1]);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_EQ(second.retries, 1);
  EXPECT_FALSE(second.stale);

  EXPECT_EQ(failpoint::FireCount("serve.score_cold"), 1u);
  const ServerStats::Snapshot stats = service->StatsSnapshot();
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServeChaosTest, ExhaustedRetriesFallBackToStaleEntry) {
  eth::AppendableLedger growable(*ledger_);
  InferenceServiceConfig config = ServiceConfig(/*workers=*/1);
  config.max_cold_retries = 1;
  auto service = MakeService(config, &growable);
  const auto exchanges =
      growable.AccountsOfClass(eth::AccountClass::kExchange);
  const eth::AccountId address = exchanges[0];

  // Healthy warm-up caches the score at the current height.
  const ScoreResult cold = service->Score(address);
  ASSERT_TRUE(cold.ok());
  const uint64_t old_height = service->ledger_height();

  // The chain advances, then the cold path goes down hard.
  eth::Transaction tx = growable.transactions().back();
  tx.timestamp += 1.0;
  ASSERT_TRUE(growable.Append(tx).ok());
  service->RefreshLedgerHeight();
  ASSERT_TRUE(failpoint::Enable("serve.score_cold", failpoint::Always())
                  .ok());

  const ScoreResult stale = service->Score(address);
  ASSERT_TRUE(stale.ok()) << stale.status.ToString();
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.ledger_height, old_height);
  EXPECT_DOUBLE_EQ(stale.probability, cold.probability);

  const ServerStats::Snapshot stats = service->StatsSnapshot();
  EXPECT_EQ(stats.stale_served, 1u);
  EXPECT_EQ(stats.retried, 1u);  // max_cold_retries before degrading.
  EXPECT_EQ(stats.errors, 0u);
  // 1 initial attempt + 1 retry.
  EXPECT_EQ(failpoint::FireCount("serve.score_cold"), 2u);
}

TEST_F(ServeChaosTest, ExhaustedRetriesWithoutStaleCorpusIsAnError) {
  InferenceServiceConfig config = ServiceConfig(/*workers=*/1);
  config.max_cold_retries = 2;
  auto service = MakeService(config, ledger_);
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);

  ASSERT_TRUE(failpoint::Enable("serve.score_cold", failpoint::Always())
                  .ok());
  const ScoreResult result = service->Score(exchanges[0]);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  const ServerStats::Snapshot stats = service->StatsSnapshot();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST_F(ServeChaosTest, ResourceExhaustedPastTheRetriesCountsAsShed) {
  InferenceServiceConfig config = ServiceConfig(/*workers=*/1);
  config.max_cold_retries = 1;
  auto service = MakeService(config, ledger_);
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);

  // A transient kResourceExhausted from the cold path, past the retries and
  // with no stale entry, reaches the client as the 429 of a shed request,
  // so it is booked as one.
  ASSERT_TRUE(
      failpoint::Enable("serve.score_cold",
                        failpoint::Always(StatusCode::kResourceExhausted))
          .ok());
  const ScoreResult result = service->Score(exchanges[0]);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(SuggestedHttpStatus(result.status), 429);
  const ServerStats::Snapshot stats = service->StatsSnapshot();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST_F(ServeChaosTest, CheckpointReadAndWriteFailpointsInject) {
  ASSERT_TRUE(
      failpoint::Enable("ckpt.write",
                        failpoint::Always(StatusCode::kUnavailable))
          .ok());
  std::stringstream sink;
  EXPECT_EQ(model_->Save(&sink).code(), StatusCode::kUnavailable);
  failpoint::Disable("ckpt.write");
  ASSERT_TRUE(model_->Save(&sink).ok());

  ASSERT_TRUE(
      failpoint::Enable("ckpt.read",
                        failpoint::Always(StatusCode::kDataLoss))
          .ok());
  auto loaded = core::Dbg4Eth::Load(&sink);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  failpoint::Disable("ckpt.read");
  sink.clear();
  sink.seekg(0);
  EXPECT_TRUE(core::Dbg4Eth::Load(&sink).ok());
}

TEST_F(ServeChaosTest, IngestFailpointsInject) {
  ASSERT_TRUE(failpoint::Enable("eth.from_csv",
                                failpoint::Always(StatusCode::kUnavailable))
                  .ok());
  std::stringstream csv;
  csv << "from,to,value,timestamp,gas_price,gas_used,to_is_contract\n"
      << "a,b,1,1,1,21000,0\n";
  EXPECT_EQ(eth::CsvLedger::FromCsv(&csv).status().code(),
            StatusCode::kUnavailable);
  failpoint::Disable("eth.from_csv");

  ASSERT_TRUE(failpoint::Enable("eth.materialize",
                                failpoint::Always(StatusCode::kUnavailable))
                  .ok());
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  auto inst = eth::MaterializeInstance(*ledger_, exchanges[0], Sampling(),
                                       kTimeSlices);
  EXPECT_EQ(inst.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServeChaosTest, SlowWorkersDoNotLoseRequests) {
  ASSERT_TRUE(
      failpoint::Enable("pool.task", failpoint::SleepFor(1'000)).ok());
  auto service = MakeService(ServiceConfig(/*workers=*/2), ledger_);
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);

  std::vector<std::future<ScoreResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        service->ScoreAsync(exchanges[i % exchanges.size()]));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());  // Slow, not lost.
  }
  EXPECT_GT(failpoint::FireCount("pool.task"), 0u);
}

// The TSan centerpiece: concurrent clients with mixed deadlines, a cold
// path failing with probability 0.25, slow workers, and a Shutdown racing
// the producers. Every future must resolve, and the client-side outcome
// tally must reconcile exactly with the server's counters.
TEST_F(ServeChaosTest, ConcurrentChaosWithRacingShutdownReconciles) {
  InferenceServiceConfig config = ServiceConfig(/*workers=*/4);
  config.queue_capacity = 32;
  config.max_cold_retries = 1;
  auto service = MakeService(config, ledger_);

  ASSERT_TRUE(failpoint::Enable(
                  "serve.score_cold",
                  failpoint::WithProbability(0.25, /*seed=*/0xc4a05))
                  .ok());
  ASSERT_TRUE(
      failpoint::Enable("pool.task", failpoint::SleepFor(200)).ok());

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const auto bridges = ledger_->AccountsOfClass(eth::AccountClass::kBridge);
  std::vector<eth::AccountId> addresses = exchanges;
  addresses.insert(addresses.end(), bridges.begin(), bridges.end());
  constexpr int64_t kDeadlines[] = {0, 3'000, 20'000};

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 30;
  std::atomic<uint64_t> ok_count{0}, deadline_count{0}, shed_count{0},
      error_count{0}, stale_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<ScoreResult>> futures;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        futures.push_back(
            service->ScoreAsync(addresses[(c + 2 * i) % addresses.size()],
                                kDeadlines[(c + i) % 3]));
      }
      for (auto& future : futures) {
        const ScoreResult result = future.get();  // Must always resolve.
        if (result.ok()) {
          ok_count.fetch_add(1);
          if (result.stale) stale_count.fetch_add(1);
        } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
          deadline_count.fetch_add(1);
        } else if (result.status.code() == StatusCode::kResourceExhausted) {
          shed_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
        }
      }
    });
  }

  // Shut down while clients are still producing: accepted work must drain,
  // late submissions must resolve as errors, nothing may hang or race.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->Shutdown();
  for (auto& client : clients) client.join();
  EXPECT_GT(failpoint::FireCount("pool.task"), 0u);

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kClients) * kRequestsPerClient;
  EXPECT_EQ(ok_count + deadline_count + shed_count + error_count, kTotal);

  const ServerStats::Snapshot stats = service->StatsSnapshot();
  EXPECT_EQ(stats.requests, ok_count.load());
  EXPECT_EQ(stats.deadline_exceeded, deadline_count.load());
  EXPECT_EQ(stats.shed, shed_count.load());
  EXPECT_EQ(stats.errors, error_count.load());
  EXPECT_EQ(stats.stale_served, stale_count.load());
  EXPECT_EQ(stats.requests + stats.errors + stats.deadline_exceeded +
                stats.shed,
            kTotal);
}

// --------------------------------------------------------------------------
// Kill -> resume -> hot-reload chaos: crashes injected at the snapshot
// write (`ckpt.write`), at the epoch boundary (`train.epoch_end`), and at
// the reload validation gate (`reload.validate`). The tools/check.sh tsan
// stage runs this suite too.
// --------------------------------------------------------------------------

class ResumeReloadChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eth::LedgerConfig lc;
    lc.num_normal = 400;
    lc.num_exchange = 12;
    lc.num_ico_wallet = 8;
    lc.num_mining = 6;
    lc.num_phish_hack = 12;
    lc.num_bridge = 6;
    lc.num_defi = 6;
    lc.duration_days = 90.0;
    lc.seed = 177;
    ledger_ = new eth::LedgerSimulator(lc);
    ASSERT_TRUE(ledger_->Generate().ok());

    eth::DatasetConfig dc;
    dc.target = eth::AccountClass::kExchange;
    dc.max_positives = 10;
    dc.sampling.top_k = 4;
    dc.sampling.max_nodes = 30;
    dc.num_time_slices = 4;
    dc.seed = 5;
    auto built = eth::BuildDataset(*ledger_, dc);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    raw_dataset_ = new eth::SubgraphDataset(std::move(built).ValueOrDie());

    Rng split_rng(123);
    split_ = new ml::SplitIndices(
        ml::StratifiedSplit(raw_dataset_->labels(), 0.6, 0.2, &split_rng));
  }

  static void TearDownTestSuite() {
    delete split_;
    split_ = nullptr;
    delete raw_dataset_;
    raw_dataset_ = nullptr;
    delete ledger_;
    ledger_ = nullptr;
  }

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("dbg4eth_chaos_") + info->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    failpoint::DisableAll();
    std::filesystem::remove_all(dir_);
  }

  static core::Dbg4EthConfig TinyConfig() {
    core::Dbg4EthConfig config;
    config.gsg.hidden_dim = 12;
    config.gsg.num_heads = 2;
    config.gsg.epochs = 3;
    config.gsg.batch_size = 8;
    config.ldg.hidden_dim = 12;
    config.ldg.num_time_slices = 4;
    config.ldg.first_level_clusters = 4;
    config.ldg.epochs = 2;
    config.gbdt.num_trees = 10;
    config.gbdt.tree.min_samples_leaf = 2;
    return config;
  }

  CheckpointStoreConfig StoreConfig() {
    CheckpointStoreConfig config;
    config.directory = dir_.string();
    config.retain = 50;
    config.sync = false;
    return config;
  }

  static std::string SaveBytes(const core::Dbg4Eth& model) {
    std::ostringstream os;
    EXPECT_TRUE(model.Save(&os).ok());
    return os.str();
  }

  static std::string UninterruptedBytes() {
    eth::SubgraphDataset ds = *raw_dataset_;
    core::Dbg4Eth model(TinyConfig());
    Status st = model.Train(&ds, *split_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return SaveBytes(model);
  }

  static eth::LedgerSimulator* ledger_;
  static eth::SubgraphDataset* raw_dataset_;
  static ml::SplitIndices* split_;
  std::filesystem::path dir_;
};

eth::LedgerSimulator* ResumeReloadChaosTest::ledger_ = nullptr;
eth::SubgraphDataset* ResumeReloadChaosTest::raw_dataset_ = nullptr;
ml::SplitIndices* ResumeReloadChaosTest::split_ = nullptr;

// A crash while the snapshot itself is being written: the failed Save
// surfaces as a training error (the process would have died), earlier
// generations survive untouched (atomic tmp -> rename), and resuming
// from them reproduces the uninterrupted model bit for bit.
TEST_F(ResumeReloadChaosTest, KillDuringSnapshotWriteThenResume) {
  const std::string reference = UninterruptedBytes();
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  core::TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.snapshot_every_epochs = 1;
  {
    // Snapshots 1 and 2 commit; the third write dies mid-save.
    ASSERT_TRUE(
        failpoint::Enable("ckpt.write",
                          failpoint::AfterN(2, StatusCode::kDataLoss))
            .ok());
    eth::SubgraphDataset ds = *raw_dataset_;
    core::Dbg4Eth crashed(TinyConfig());
    auto progress = crashed.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_FALSE(progress.ok());
    EXPECT_EQ(progress.status().code(), StatusCode::kDataLoss);
    failpoint::Disable("ckpt.write");
  }
  ASSERT_EQ(store.ValueOrDie()->ListGenerations().size(), 2u);

  eth::SubgraphDataset ds = *raw_dataset_;
  core::Dbg4Eth resumed(TinyConfig());
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress.ValueOrDie(), core::TrainProgress::kComplete);
  EXPECT_EQ(SaveBytes(resumed), reference);
}

// A kill at the epoch boundary right after the snapshot committed — the
// classic preemption SIGKILL. The snapshot on disk carries that epoch, so
// the resumed run continues from the next one, bit-identically.
TEST_F(ResumeReloadChaosTest, KillAtEpochBoundaryThenResume) {
  const std::string reference = UninterruptedBytes();
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  core::TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.snapshot_every_epochs = 1;
  {
    // Boundaries 1-2 pass; the third epoch boundary "kills" the process
    // after its snapshot was committed.
    ASSERT_TRUE(
        failpoint::Enable("train.epoch_end",
                          failpoint::AfterN(2, StatusCode::kUnavailable))
            .ok());
    eth::SubgraphDataset ds = *raw_dataset_;
    core::Dbg4Eth crashed(TinyConfig());
    auto progress = crashed.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_FALSE(progress.ok());
    failpoint::Disable("train.epoch_end");
  }
  ASSERT_EQ(store.ValueOrDie()->ListGenerations().size(), 3u);

  eth::SubgraphDataset ds = *raw_dataset_;
  core::Dbg4Eth resumed(TinyConfig());
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress.ValueOrDie(), core::TrainProgress::kComplete);
  EXPECT_EQ(SaveBytes(resumed), reference);
}

// The full pipeline under fault injection: train with snapshots, crash,
// resume, publish the finished model, and hot-reload it into a registry
// whose validation gate is itself failing — the reload must be rejected
// (keep serving nothing / the old model) until the gate heals.
TEST_F(ResumeReloadChaosTest, ResumeThenReloadWithFailingValidationGate) {
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Crash mid-training, then resume to completion.
  core::TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.max_epochs_this_run = 2;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    core::Dbg4Eth preempted(TinyConfig());
    auto progress = preempted.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    ASSERT_EQ(progress.ValueOrDie(), core::TrainProgress::kPreempted);
  }
  options.max_epochs_this_run = 0;
  eth::SubgraphDataset ds = *raw_dataset_;
  core::Dbg4Eth resumed(TinyConfig());
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  ASSERT_EQ(progress.ValueOrDie(), core::TrainProgress::kComplete);

  // Publish the served-model checkpoint into a separate model store.
  const std::filesystem::path model_dir = dir_ / "serving";
  CheckpointStoreConfig model_store_config;
  model_store_config.directory = model_dir.string();
  model_store_config.retain = 10;
  model_store_config.sync = false;
  auto model_store = CheckpointStore::Open(model_store_config);
  ASSERT_TRUE(model_store.ok());
  const std::string model_bytes = SaveBytes(resumed);
  ASSERT_TRUE(model_store.ValueOrDie()
                  ->Save([&](std::ostream* os) {
                    os->write(model_bytes.data(),
                              static_cast<std::streamsize>(model_bytes.size()));
                    return Status::OK();
                  })
                  .ok());

  // A failing validation gate (injected) must reject the initial load.
  ASSERT_TRUE(failpoint::Enable("reload.validate",
                                failpoint::Always(StatusCode::kUnavailable))
                  .ok());
  ModelRegistryConfig registry_config;
  registry_config.store = model_store_config;
  registry_config.start_watcher = false;
  auto registry = ModelRegistry::Create(registry_config, nullptr);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry.ValueOrDie()->current(), nullptr);
  EXPECT_EQ(registry.ValueOrDie()->current_generation(), 0u);

  // Gate heals; a NEWER generation is required (the rejected one is
  // remembered), so republish and poll.
  failpoint::Disable("reload.validate");
  ASSERT_TRUE(model_store.ValueOrDie()
                  ->Save([&](std::ostream* os) {
                    os->write(model_bytes.data(),
                              static_cast<std::streamsize>(model_bytes.size()));
                    return Status::OK();
                  })
                  .ok());
  auto swapped = registry.ValueOrDie()->Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped.ValueOrDie());
  ASSERT_NE(registry.ValueOrDie()->current(), nullptr);
  EXPECT_EQ(registry.ValueOrDie()->current_generation(), 2u);

  // The reloaded model scores identically to the resumed one.
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_FALSE(exchanges.empty());
  graph::SamplingConfig chaos_sampling;
  chaos_sampling.top_k = 4;
  chaos_sampling.max_nodes = 30;
  auto instance = eth::MaterializeInstance(*ledger_, exchanges.front(),
                                           chaos_sampling, 4);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  eth::GraphInstance via_registry = instance.ValueOrDie();
  registry.ValueOrDie()->current()->Normalize(&via_registry);
  eth::GraphInstance via_resumed = instance.ValueOrDie();
  resumed.Normalize(&via_resumed);
  EXPECT_DOUBLE_EQ(
      registry.ValueOrDie()->current()->PredictProba(via_registry),
      resumed.PredictProba(via_resumed));
}

}  // namespace
}  // namespace serve
}  // namespace dbg4eth
