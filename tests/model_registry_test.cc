// Zero-downtime hot-reload: the ModelRegistry watcher must install new
// checkpoint generations off the request path, reject poisoned candidates
// at the validation gate (automatic rollback = keep serving), skip corrupt
// generations, and RCU-swap into the InferenceService without ever mixing
// models inside one forward pass or caching a replaced model's score.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint_store.h"
#include "common/rng.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "gated_ledger.h"
#include "ml/split.h"
#include "serve/inference_service.h"
#include "serve/model_registry.h"

namespace dbg4eth {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Shared workload: one ledger and two small trained models (different
/// seeds, so their scores differ — that difference drives the drift gate).
class ModelRegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eth::LedgerConfig lc;
    lc.num_normal = 500;
    lc.num_exchange = 12;
    lc.num_ico_wallet = 8;
    lc.num_mining = 6;
    lc.num_phish_hack = 12;
    lc.num_bridge = 6;
    lc.num_defi = 6;
    lc.duration_days = 90.0;
    lc.seed = 77;
    ledger_ = new eth::LedgerSimulator(lc);
    ASSERT_TRUE(ledger_->Generate().ok());

    eth::DatasetConfig dc;
    dc.target = eth::AccountClass::kExchange;
    dc.max_positives = 10;
    dc.sampling = Sampling();
    dc.num_time_slices = kTimeSlices;
    dc.seed = 5;
    auto built = eth::BuildDataset(*ledger_, dc);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    checkpoint_a_ = new std::string(TrainAndSave(built.ValueOrDie(), 7));
    checkpoint_b_ = new std::string(TrainAndSave(built.ValueOrDie(), 8));
    ASSERT_NE(*checkpoint_a_, *checkpoint_b_);

    // An address the two models score differently: saturated accounts can
    // land in the same GBDT leaf of both heads, so the drift and cache
    // tests need a genuinely diverging probe target.
    std::stringstream stream_a(*checkpoint_a_);
    auto model_a = core::Dbg4Eth::Load(&stream_a);
    ASSERT_TRUE(model_a.ok());
    std::stringstream stream_b(*checkpoint_b_);
    auto model_b = core::Dbg4Eth::Load(&stream_b);
    ASSERT_TRUE(model_b.ok());
    diverging_address_ = -1;
    for (auto cls :
         {eth::AccountClass::kExchange, eth::AccountClass::kPhishHack,
          eth::AccountClass::kBridge, eth::AccountClass::kMining,
          eth::AccountClass::kDefi}) {
      for (eth::AccountId address : ledger_->AccountsOfClass(cls)) {
        const auto pa = ScoreWith(*model_a.ValueOrDie(), address);
        const auto pb = ScoreWith(*model_b.ValueOrDie(), address);
        if (pa.ok() && pb.ok() &&
            pa.ValueOrDie() != pb.ValueOrDie()) {
          diverging_address_ = address;
          break;
        }
      }
      if (diverging_address_ >= 0) break;
    }
    ASSERT_GE(diverging_address_, 0)
        << "models A and B score every probe account identically";
  }

  static Result<double> ScoreWith(const core::Dbg4Eth& model,
                                  eth::AccountId address) {
    DBG4ETH_ASSIGN_OR_RETURN(
        eth::GraphInstance instance,
        eth::MaterializeInstance(*ledger_, address, Sampling(), kTimeSlices));
    model.Normalize(&instance);
    return model.PredictProba(instance);
  }

  static void TearDownTestSuite() {
    delete checkpoint_b_;
    checkpoint_b_ = nullptr;
    delete checkpoint_a_;
    checkpoint_a_ = nullptr;
    delete ledger_;
    ledger_ = nullptr;
  }

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("dbg4eth_registry_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static graph::SamplingConfig Sampling() {
    graph::SamplingConfig sampling;
    sampling.top_k = 4;
    sampling.max_nodes = 30;
    return sampling;
  }

  static std::string TrainAndSave(eth::SubgraphDataset dataset,
                                  uint64_t seed) {
    core::Dbg4EthConfig config;
    config.gsg.hidden_dim = 10;
    config.gsg.num_heads = 2;
    config.gsg.epochs = 2;
    config.gsg.batch_size = 8;
    config.ldg.hidden_dim = 10;
    config.ldg.num_time_slices = kTimeSlices;
    config.ldg.first_level_clusters = 4;
    config.ldg.epochs = 1;
    config.gbdt.num_trees = 8;
    config.gbdt.tree.min_samples_leaf = 2;
    config.seed = seed;
    config.gsg.seed = seed;
    config.ldg.seed = seed;
    core::Dbg4Eth model(config);
    Rng rng(seed);
    const ml::SplitIndices split = ml::StratifiedSplit(
        dataset.labels(), config.train_fraction, config.val_fraction, &rng);
    EXPECT_TRUE(model.Train(&dataset, split).ok());
    std::ostringstream os;
    EXPECT_TRUE(model.Save(&os).ok());
    return os.str();
  }

  ModelRegistryConfig RegistryConfig() {
    ModelRegistryConfig config;
    config.store.directory = dir_.string();
    config.store.retain = 50;
    config.store.sync = false;
    config.start_watcher = false;  // Tests drive Poll deterministically.
    return config;
  }

  /// Publishes a model checkpoint as the next generation, the way the
  /// trainer does: the (already framed) Dbg4Eth::Save bytes written
  /// through CheckpointStore::Save, which frames them again.
  uint64_t Publish(const std::string& checkpoint) {
    return PublishTo(checkpoint, dir_);
  }

  uint64_t PublishTo(const std::string& checkpoint, const fs::path& dir) {
    CheckpointStoreConfig config = RegistryConfig().store;
    config.directory = dir.string();
    auto store = CheckpointStore::Open(config);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    const uint64_t sequence = store.ValueOrDie()->next_sequence();
    auto path = store.ValueOrDie()->Save([&](std::ostream* os) {
      os->write(checkpoint.data(),
                static_cast<std::streamsize>(checkpoint.size()));
      return os->good() ? Status::OK()
                        : Status::Internal("short checkpoint write");
    });
    EXPECT_TRUE(path.ok()) << path.status().ToString();
    return sequence;
  }

  void CorruptFile(const std::string& path) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const auto size = fs::file_size(path);
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }

  static constexpr int kTimeSlices = 4;
  static eth::LedgerSimulator* ledger_;
  static std::string* checkpoint_a_;
  static std::string* checkpoint_b_;
  static eth::AccountId diverging_address_;
  fs::path dir_;
};

eth::LedgerSimulator* ModelRegistryTest::ledger_ = nullptr;
std::string* ModelRegistryTest::checkpoint_a_ = nullptr;
std::string* ModelRegistryTest::checkpoint_b_ = nullptr;
eth::AccountId ModelRegistryTest::diverging_address_ = -1;

TEST_F(ModelRegistryTest, InstallsNewestGenerationOnCreate) {
  EXPECT_EQ(Publish(*checkpoint_a_), 1u);
  auto registry = ModelRegistry::Create(RegistryConfig(), nullptr);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_NE(registry.ValueOrDie()->current(), nullptr);
  EXPECT_EQ(registry.ValueOrDie()->current_generation(), 1u);
}

TEST_F(ModelRegistryTest, EmptyStoreStartsWithoutAModel) {
  auto registry = ModelRegistry::Create(RegistryConfig(), nullptr);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry.ValueOrDie()->current(), nullptr);
  EXPECT_EQ(registry.ValueOrDie()->current_generation(), 0u);
  auto swapped = registry.ValueOrDie()->Poll();
  ASSERT_TRUE(swapped.ok());
  EXPECT_FALSE(swapped.ValueOrDie());
}

TEST_F(ModelRegistryTest, PollInstallsNewGenerationAndFiresCallback) {
  Publish(*checkpoint_a_);
  auto created = ModelRegistry::Create(RegistryConfig(), nullptr);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelRegistry& registry = *created.ValueOrDie();

  std::vector<uint64_t> observed;
  registry.SetSwapCallback(
      [&](std::shared_ptr<const core::Dbg4Eth> model, uint64_t generation) {
        EXPECT_NE(model, nullptr);
        observed.push_back(generation);
      });
  // Late wiring must not miss the initial load.
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed.front(), 1u);

  Publish(*checkpoint_b_);
  auto swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped.ValueOrDie());
  EXPECT_EQ(registry.current_generation(), 2u);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed.back(), 2u);

  // No newer generation -> no swap, no callback.
  swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok());
  EXPECT_FALSE(swapped.ValueOrDie());
  EXPECT_EQ(observed.size(), 2u);
}

TEST_F(ModelRegistryTest, CorruptNewestKeepsServingAndRetriesOnNewer) {
  Publish(*checkpoint_a_);
  auto created = ModelRegistry::Create(RegistryConfig(), nullptr);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelRegistry& registry = *created.ValueOrDie();
  const std::shared_ptr<const core::Dbg4Eth> before = registry.current();

  Publish(*checkpoint_b_);
  CorruptFile(registry.store().ListGenerations().front().path);
  auto swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_FALSE(swapped.ValueOrDie());
  EXPECT_EQ(registry.current_generation(), 1u);
  EXPECT_EQ(registry.current(), before);  // Same object, not a reload.

  // The bad generation is remembered: polling again does not re-read it.
  swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok());
  EXPECT_FALSE(swapped.ValueOrDie());

  // A newer valid generation recovers.
  Publish(*checkpoint_b_);
  swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped.ValueOrDie());
  EXPECT_EQ(registry.current_generation(), 3u);
}

TEST_F(ModelRegistryTest, ValidationGateRejectsNonFiniteAndRollsBack) {
  Publish(*checkpoint_a_);
  std::atomic<bool> poison{false};
  auto probe = [&poison](const core::Dbg4Eth&) -> Result<std::vector<double>> {
    if (poison.load()) {
      return std::vector<double>{std::nan("")};
    }
    return std::vector<double>{0.5};
  };
  auto created = ModelRegistry::Create(RegistryConfig(), probe);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelRegistry& registry = *created.ValueOrDie();
  ASSERT_EQ(registry.current_generation(), 1u);
  const std::shared_ptr<const core::Dbg4Eth> before = registry.current();

  poison.store(true);
  Publish(*checkpoint_b_);
  auto swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_FALSE(swapped.ValueOrDie());
  // Rollback is automatic: the swap never happened.
  EXPECT_EQ(registry.current_generation(), 1u);
  EXPECT_EQ(registry.current(), before);

  poison.store(false);
  Publish(*checkpoint_b_);
  swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped.ValueOrDie());
  EXPECT_EQ(registry.current_generation(), 3u);
}

TEST_F(ModelRegistryTest, DriftGateRejectsADivergentModel) {
  // Models A and B were trained with different seeds; the fixture picked
  // an address they score differently, so the probe drifts past the
  // near-zero tolerance.
  const eth::AccountId address = diverging_address_;
  auto score_probe =
      [this, address](const core::Dbg4Eth& model)
      -> Result<std::vector<double>> {
    DBG4ETH_ASSIGN_OR_RETURN(
        eth::GraphInstance instance,
        eth::MaterializeInstance(*ledger_, address, Sampling(), kTimeSlices));
    model.Normalize(&instance);
    return std::vector<double>{model.PredictProba(instance)};
  };

  Publish(*checkpoint_a_);
  ModelRegistryConfig strict = RegistryConfig();
  strict.max_probe_drift = 1e-12;
  auto created = ModelRegistry::Create(strict, score_probe);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelRegistry& registry = *created.ValueOrDie();
  ASSERT_EQ(registry.current_generation(), 1u);  // No baseline: accepted.

  Publish(*checkpoint_b_);
  auto swapped = registry.Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_FALSE(swapped.ValueOrDie());  // Drifted past 1e-12: rejected.
  EXPECT_EQ(registry.current_generation(), 1u);

  // Same sequence with the drift gate disabled: the swap goes through.
  // A sibling directory keeps the lax registry's generation numbering
  // independent of the strict half above.
  const fs::path lax_dir = dir_.string() + "_lax";
  fs::remove_all(lax_dir);
  PublishTo(*checkpoint_a_, lax_dir);
  ModelRegistryConfig lax = RegistryConfig();
  lax.store.directory = lax_dir.string();
  lax.max_probe_drift = -1.0;
  auto lax_created = ModelRegistry::Create(lax, score_probe);
  ASSERT_TRUE(lax_created.ok()) << lax_created.status().ToString();
  ASSERT_EQ(lax_created.ValueOrDie()->current_generation(), 1u);
  PublishTo(*checkpoint_b_, lax_dir);
  swapped = lax_created.ValueOrDie()->Poll();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(swapped.ValueOrDie());
  EXPECT_EQ(lax_created.ValueOrDie()->current_generation(), 2u);
  fs::remove_all(lax_dir);
}

TEST_F(ModelRegistryTest, RepublishingTheSameModelSwapsCleanly) {
  Publish(*checkpoint_a_);
  auto created = ModelRegistry::Create(RegistryConfig(), nullptr);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelRegistry& registry = *created.ValueOrDie();
  for (uint64_t expected = 2; expected <= 5; ++expected) {
    Publish(*checkpoint_a_);
    auto swapped = registry.Poll();
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
    EXPECT_TRUE(swapped.ValueOrDie());
    EXPECT_EQ(registry.current_generation(), expected);
  }
}

// --------------------------------------------------------------------------
// Hot-swap under load (the TSan target): a background watcher swapping
// models while clients score through the InferenceService. Running passes
// must finish on the model they started with; every accepted
// request must resolve with a finite score or a principled error.
// --------------------------------------------------------------------------

TEST_F(ModelRegistryTest, HotSwapHammerUnderConcurrentScoring) {
  Publish(*checkpoint_a_);

  ModelRegistryConfig config = RegistryConfig();
  config.start_watcher = true;
  config.poll_interval_us = 1'000;
  auto created = ModelRegistry::Create(config, nullptr);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ModelRegistry& registry = *created.ValueOrDie();
  ASSERT_NE(registry.current(), nullptr);

  InferenceServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.cache.capacity = 128;
  service_config.cache.num_shards = 4;
  service_config.sampling = Sampling();
  service_config.num_time_slices = kTimeSlices;

  std::stringstream initial(*checkpoint_a_);
  auto loaded = core::Dbg4Eth::Load(&initial);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  InferenceService service(service_config, std::move(loaded).ValueOrDie(),
                           ledger_);
  registry.SetSwapCallback(
      [&service](std::shared_ptr<const core::Dbg4Eth> model,
                 uint64_t generation) {
        service.SwapModel(std::move(model), generation);
      });
  // The immediate callback wired generation 1 into the service.
  EXPECT_EQ(service.model_generation(), 1u);

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int i = 0; i < 8 && !stop.load(); ++i) {
      Publish(i % 2 == 0 ? *checkpoint_b_ : *checkpoint_a_);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 24;
  std::vector<std::thread> clients;
  std::atomic<int> resolved{0};
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const eth::AccountId address =
            exchanges[(c + i) % exchanges.size()];
        const ScoreResult result = service.Score(address);
        resolved.fetch_add(1);
        if (result.ok()) {
          if (!std::isfinite(result.probability)) failures.fetch_add(1);
        } else if (result.status.code() != StatusCode::kResourceExhausted &&
                   result.status.code() != StatusCode::kUnavailable) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  publisher.join();
  registry.StopWatcher();
  service.Shutdown();

  EXPECT_EQ(resolved.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(failures.load(), 0);
  // The watcher kept up with the publisher: the service ended on a newer
  // generation than it started with.
  EXPECT_GT(service.model_generation(), 1u);
  EXPECT_EQ(service.model_generation(), registry.current_generation());
}

// Direct SwapModel semantics: the cache is dropped (scores from the old
// model cannot be served as hits of the new one) and the generation label
// rides every subsequent result.
TEST_F(ModelRegistryTest, SwapModelClearsCacheAndStampsGeneration) {
  InferenceServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.cache.capacity = 64;
  service_config.cache.num_shards = 2;
  service_config.sampling = Sampling();
  service_config.num_time_slices = kTimeSlices;

  std::stringstream stream_a(*checkpoint_a_);
  auto model_a = core::Dbg4Eth::Load(&stream_a);
  ASSERT_TRUE(model_a.ok());
  InferenceService service(service_config, std::move(model_a).ValueOrDie(),
                           ledger_);

  const eth::AccountId address = diverging_address_;

  const ScoreResult cold = service.Score(address);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.model_generation, 0u);  // Construction-time model.
  const ScoreResult warm = service.Score(address);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);

  std::stringstream stream_b(*checkpoint_b_);
  auto model_b = core::Dbg4Eth::Load(&stream_b);
  ASSERT_TRUE(model_b.ok());
  service.SwapModel(
      std::shared_ptr<const core::Dbg4Eth>(
          std::move(model_b).ValueOrDie().release()),
      /*generation=*/7);
  EXPECT_EQ(service.model_generation(), 7u);

  // The old model's cached score is gone; the fresh score carries the new
  // generation and (different model) a different probability.
  const ScoreResult after = service.Score(address);
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.model_generation, 7u);
  EXPECT_NE(after.probability, cold.probability);

  const ScoreResult after_warm = service.Score(address);
  ASSERT_TRUE(after_warm.ok());
  EXPECT_TRUE(after_warm.cache_hit);
  EXPECT_EQ(after_warm.model_generation, 7u);
  EXPECT_DOUBLE_EQ(after_warm.probability, after.probability);
}

// A pass that snapshotted the old model and finishes after the swap must
// not cache its score: a later hit would serve it stamped with the new
// model's generation.
TEST_F(ModelRegistryTest, PassFinishingAfterSwapDoesNotCacheTheOldScore) {
  const eth::AccountId address = diverging_address_;
  GatedLedger gated(*ledger_, /*gate_id=*/address);
  InferenceServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.cache.capacity = 64;
  service_config.cache.num_shards = 2;
  service_config.sampling = Sampling();
  service_config.num_time_slices = kTimeSlices;

  std::stringstream stream_a(*checkpoint_a_);
  auto model_a = core::Dbg4Eth::Load(&stream_a);
  ASSERT_TRUE(model_a.ok());
  const auto score_a = ScoreWith(*model_a.ValueOrDie(), address);
  ASSERT_TRUE(score_a.ok());
  InferenceService service(service_config, std::move(model_a).ValueOrDie(),
                           &gated);

  // Score on model A and hold the pass at the gate.
  std::future<ScoreResult> held = service.ScoreAsync(address);
  ASSERT_TRUE(gated.WaitUntilEntered());

  // Swap to model B while A's pass is still running, then let it finish.
  std::stringstream stream_b(*checkpoint_b_);
  auto model_b = core::Dbg4Eth::Load(&stream_b);
  ASSERT_TRUE(model_b.ok());
  const auto score_b = ScoreWith(*model_b.ValueOrDie(), address);
  ASSERT_TRUE(score_b.ok());
  service.SwapModel(
      std::shared_ptr<const core::Dbg4Eth>(
          std::move(model_b).ValueOrDie().release()),
      /*generation=*/7);
  gated.Open();
  const ScoreResult on_a = held.get();
  ASSERT_TRUE(on_a.ok()) << on_a.status.ToString();
  EXPECT_EQ(on_a.probability, score_a.ValueOrDie());
  EXPECT_EQ(on_a.model_generation, 0u);

  // The next score misses and runs on B.
  const ScoreResult on_b = service.Score(address);
  ASSERT_TRUE(on_b.ok()) << on_b.status.ToString();
  EXPECT_FALSE(on_b.cache_hit);
  EXPECT_EQ(on_b.probability, score_b.ValueOrDie());
  EXPECT_EQ(on_b.model_generation, 7u);
}

// Cache hits racing model swaps: a hit may read an entry the swap has not
// cleared yet, and must then report the generation that scored it, not the
// one just installed.
TEST_F(ModelRegistryTest, HitsRacingSwapsReportTheGenerationOfTheirScore) {
  std::stringstream stream_a(*checkpoint_a_);
  auto loaded_a = core::Dbg4Eth::Load(&stream_a);
  ASSERT_TRUE(loaded_a.ok());
  const std::shared_ptr<const core::Dbg4Eth> model_a =
      std::move(loaded_a).ValueOrDie();
  std::stringstream stream_b(*checkpoint_b_);
  auto loaded_b = core::Dbg4Eth::Load(&stream_b);
  ASSERT_TRUE(loaded_b.ok());
  const std::shared_ptr<const core::Dbg4Eth> model_b =
      std::move(loaded_b).ValueOrDie();
  const eth::AccountId address = diverging_address_;
  const auto score_a = ScoreWith(*model_a, address);
  const auto score_b = ScoreWith(*model_b, address);
  ASSERT_TRUE(score_a.ok());
  ASSERT_TRUE(score_b.ok());
  ASSERT_NE(score_a.ValueOrDie(), score_b.ValueOrDie());

  InferenceServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.cache.capacity = 64;
  service_config.cache.num_shards = 2;
  service_config.sampling = Sampling();
  service_config.num_time_slices = kTimeSlices;
  // Generation 0, the construction-time model, is A as well.
  std::stringstream initial(*checkpoint_a_);
  auto loaded = core::Dbg4Eth::Load(&initial);
  ASSERT_TRUE(loaded.ok());
  InferenceService service(service_config, std::move(loaded).ValueOrDie(),
                           ledger_);

  // Odd generations serve B, even ones A.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> results{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        const ScoreResult result = service.Score(address);
        if (!result.ok()) continue;
        results.fetch_add(1);
        const double expected = result.model_generation % 2 == 1
                                    ? score_b.ValueOrDie()
                                    : score_a.ValueOrDie();
        if (result.probability != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (uint64_t generation = 1; generation <= 300; ++generation) {
    std::this_thread::sleep_for(std::chrono::microseconds(1'500));
    service.SwapModel(generation % 2 == 1 ? model_b : model_a, generation);
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  service.Shutdown();

  EXPECT_GT(results.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u) << "of " << results.load() << " results";
}

}  // namespace
}  // namespace serve
}  // namespace dbg4eth
