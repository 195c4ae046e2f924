#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/dbg4eth.h"
#include "eth/appendable_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "gated_ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_service.h"

namespace dbg4eth {
namespace serve {
namespace {

/// Shared workload: one ledger, one small trained model checkpoint. Built
/// once — training dominates this file's runtime.
class ServeIntegrationTest : public ::testing::Test {
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
    dataset_ = new eth::SubgraphDataset(std::move(ds).ValueOrDie());

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
    const ml::SplitIndices split = ml::StratifiedSplit(
        dataset_->labels(), config.train_fraction, config.val_fraction, &rng);
    ASSERT_TRUE(model_->Train(dataset_, split).ok());

    std::stringstream checkpoint;
    ASSERT_TRUE(model_->Save(&checkpoint).ok());
    checkpoint_ = new std::string(checkpoint.str());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    delete ledger_;
    delete checkpoint_;
    model_ = nullptr;
    dataset_ = nullptr;
    ledger_ = nullptr;
    checkpoint_ = nullptr;
  }

  static graph::SamplingConfig Sampling() {
    graph::SamplingConfig sampling;
    sampling.top_k = 5;
    sampling.max_nodes = 40;
    return sampling;
  }

  static std::unique_ptr<core::Dbg4Eth> LoadModel() {
    std::stringstream stream(*checkpoint_);
    auto loaded = core::Dbg4Eth::Load(&stream);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::move(loaded).ValueOrDie();
  }

  static InferenceServiceConfig ServiceConfig(int workers) {
    InferenceServiceConfig config;
    config.num_workers = workers;
    config.cache.capacity = 256;
    config.cache.num_shards = 4;
    config.sampling = Sampling();
    config.num_time_slices = kTimeSlices;
    return config;
  }

  static constexpr int kTimeSlices = 4;
  static eth::LedgerSimulator* ledger_;
  static eth::SubgraphDataset* dataset_;
  static core::Dbg4Eth* model_;
  static std::string* checkpoint_;
};

eth::LedgerSimulator* ServeIntegrationTest::ledger_ = nullptr;
eth::SubgraphDataset* ServeIntegrationTest::dataset_ = nullptr;
core::Dbg4Eth* ServeIntegrationTest::model_ = nullptr;
std::string* ServeIntegrationTest::checkpoint_ = nullptr;

// --------------------------------------------------------------------------
// Concurrent PredictProba: the const-path guarantee the serving layer
// depends on.
// --------------------------------------------------------------------------

TEST_F(ServeIntegrationTest, ConcurrentPredictProbaMatchesSequential) {
  auto loaded = LoadModel();

  // Sequential reference over every instance.
  std::vector<double> expected;
  for (const auto& inst : dataset_->instances) {
    expected.push_back(loaded->PredictProba(inst));
  }

  // >= 4 threads score simultaneously. Thread t scores a distinct stripe
  // AND the shared instance 0, so both distinct- and shared-instance
  // concurrency are exercised on one model object.
  constexpr int kThreads = 6;
  std::vector<std::vector<std::pair<int, double>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < dataset_->num_graphs(); i += kThreads) {
        results[t].push_back({i, loaded->PredictProba(dataset_->instances[i])});
      }
      results[t].push_back({0, loaded->PredictProba(dataset_->instances[0])});
    });
  }
  for (auto& thread : threads) thread.join();

  for (const auto& per_thread : results) {
    for (const auto& [index, probability] : per_thread) {
      EXPECT_DOUBLE_EQ(probability, expected[index])
          << "instance " << index << " diverged under concurrency";
    }
  }

  // Two distinct model objects (trainer + restored) racing on the same
  // instances must also agree with themselves.
  std::thread other([&] {
    for (const auto& inst : dataset_->instances) {
      (void)model_->PredictProba(inst);
    }
  });
  for (const auto& inst : dataset_->instances) {
    (void)loaded->PredictProba(inst);
  }
  other.join();
}

// --------------------------------------------------------------------------
// InferenceService end-to-end
// --------------------------------------------------------------------------

TEST_F(ServeIntegrationTest, ScoreCallbackRunsInlineOnAHitAndOnTheWorkerOnAMiss) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(1), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto& service = *created.ValueOrDie();
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_FALSE(exchanges.empty());
  const eth::AccountId address = exchanges[0];
  const std::thread::id caller = std::this_thread::get_id();

  // A miss: `done` runs once, on the worker, after the outcome is booked.
  struct Call {
    std::thread::id thread;
    uint64_t booked = 0;
    ScoreResult result;
  };
  std::atomic<int> cold_calls{0};
  std::promise<Call> cold_call;
  service.ScoreAsync(address, 0, "", [&](ScoreResult result) {
    ++cold_calls;
    cold_call.set_value({std::this_thread::get_id(),
                         service.StatsSnapshot().requests,
                         std::move(result)});
  });
  const Call cold = cold_call.get_future().get();
  EXPECT_NE(cold.thread, caller);
  ASSERT_TRUE(cold.result.ok()) << cold.result.status.ToString();
  EXPECT_FALSE(cold.result.cache_hit);
  EXPECT_EQ(cold.booked, 1u);

  // A hit: `done` runs on the caller's thread before ScoreAsync returns.
  bool hit_called = false;
  Call hit;
  service.ScoreAsync(address, 0, "", [&](ScoreResult result) {
    hit_called = true;
    hit = {std::this_thread::get_id(), service.StatsSnapshot().cache_hits,
           std::move(result)};
  });
  ASSERT_TRUE(hit_called);
  EXPECT_EQ(hit.thread, caller);
  EXPECT_TRUE(hit.result.cache_hit);
  EXPECT_EQ(hit.result.probability, cold.result.probability);
  EXPECT_EQ(hit.booked, 1u);

  // So does the rejection of a shut-down service.
  service.Shutdown();
  bool rejected = false;
  service.ScoreAsync(address, 0, "", [&](ScoreResult result) {
    rejected = result.status.code() == StatusCode::kFailedPrecondition;
  });
  EXPECT_TRUE(rejected);
  EXPECT_EQ(cold_calls.load(), 1);
}

TEST_F(ServeIntegrationTest, ServiceScoresMatchDirectModelCalls) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto& service = *created.ValueOrDie();

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);

  for (size_t i = 0; i < 4; ++i) {
    const eth::AccountId address = exchanges[i];
    const ScoreResult result = service.Score(address);
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    EXPECT_FALSE(result.cache_hit);

    // Reference: materialize + normalize + predict directly.
    auto inst = eth::MaterializeInstance(*ledger_, address, Sampling(),
                                         kTimeSlices);
    ASSERT_TRUE(inst.ok());
    model_->Normalize(&inst.ValueOrDie());
    const double expected = model_->PredictProba(inst.ValueOrDie());
    EXPECT_DOUBLE_EQ(result.probability, expected);
  }
}

TEST_F(ServeIntegrationTest, RepeatQueriesHitTheCache) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const eth::AccountId address = exchanges.front();

  const ScoreResult cold = service.Score(address);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cache_hit);

  const ScoreResult warm = service.Score(address);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_DOUBLE_EQ(warm.probability, cold.probability);

  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.hit.count, 1u);
  EXPECT_EQ(stats.cold.count, 1u);
}

TEST_F(ServeIntegrationTest, ColdScoreProducesStageSpans) {
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->SetSampleEveryN(1);
  tracer->Clear();

  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(1), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const ScoreResult result = service.Score(exchanges.front());
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  ASSERT_FALSE(result.cache_hit);

  // One cold score must have delivered a full pipeline timing tree: the
  // worker finishes the root span before the promise resolves, so the
  // tree is visible here once Score returns.
  const auto tree = tracer->LatestRoot("score_cold");
  ASSERT_TRUE(tree.has_value());
  const std::vector<std::string> names = SpanNames(*tree);
  for (const char* stage :
       {"materialize", "sample_subgraph", "node_features", "normalize",
        "gsg_forward", "ldg_forward", "calibrate", "gbdt"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), stage), names.end())
        << "missing stage span: " << stage;
  }
  EXPECT_GE(names.size() - 1, 5u);  // >= 5 named stages under the root.

  // The tree is physically consistent: children start inside the parent
  // and sibling durations sum to at most the parent's duration.
  std::function<void(const obs::SpanNode&)> check =
      [&check](const obs::SpanNode& node) {
        double child_sum = 0.0;
        for (const obs::SpanNode& child : node.children) {
          EXPECT_GE(child.start_us + 1e-6, node.start_us);
          child_sum += child.duration_us;
          check(child);
        }
        EXPECT_LE(child_sum, node.duration_us + 1e-6);
      };
  check(*tree);
}

TEST_F(ServeIntegrationTest, UnknownAddressResolvesWithErrorNotCrash) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(1), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const ScoreResult result = service.Score(999'999'999);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(service.StatsSnapshot().errors, 1u);
}

TEST_F(ServeIntegrationTest, ManyConcurrentClientsGetConsistentScores) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(4), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const auto bridges = ledger_->AccountsOfClass(eth::AccountClass::kBridge);
  std::vector<eth::AccountId> addresses = exchanges;
  addresses.insert(addresses.end(), bridges.begin(), bridges.end());

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 30;
  std::vector<std::vector<ScoreResult>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        per_client[c].push_back(
            service.Score(addresses[(c + i) % addresses.size()]));
      }
    });
  }
  for (auto& client : clients) client.join();

  // Every (address -> probability) pair must be consistent across all
  // clients and all cache states.
  std::unordered_map<eth::AccountId, double> canonical;
  int scored = 0;
  for (const auto& results : per_client) {
    for (const ScoreResult& result : results) {
      if (!result.ok()) continue;
      ++scored;
      auto [it, inserted] =
          canonical.emplace(result.address, result.probability);
      EXPECT_DOUBLE_EQ(it->second, result.probability)
          << "address " << result.address << " scored inconsistently";
    }
  }
  EXPECT_GT(scored, 0);
  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.requests + stats.errors,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_GT(stats.cache_hits, 0u);  // Repeat addresses must hit.
}

TEST_F(ServeIntegrationTest, ShutdownRejectsNewRequestsButKeepsState) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_TRUE(service.Score(exchanges.front()).ok());
  service.Shutdown();
  service.Shutdown();  // Idempotent.

  const ScoreResult rejected = service.Score(exchanges.front());
  EXPECT_FALSE(rejected.ok());
  EXPECT_GE(service.StatsSnapshot().requests, 1u);
}

TEST_F(ServeIntegrationTest, RefreshLedgerHeightInvalidatesCachedScores) {
  eth::AppendableLedger growable(*ledger_);
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, &growable);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const auto exchanges =
      growable.AccountsOfClass(eth::AccountClass::kExchange);
  const eth::AccountId address = exchanges.front();
  ASSERT_FALSE(service.Score(address).cache_hit);
  ASSERT_TRUE(service.Score(address).cache_hit);

  // The ledger did not actually grow, so the height (and cache) stand.
  service.RefreshLedgerHeight();
  EXPECT_TRUE(service.Score(address).cache_hit);

  // A taller ledger: the score cached at the superseded height must not
  // answer a fresh request, neither as a hit nor as a stale answer.
  const uint64_t old_height = service.ledger_height();
  eth::Transaction tx = growable.transactions().back();
  tx.timestamp += 1.0;
  ASSERT_TRUE(growable.Append(tx).ok());
  service.RefreshLedgerHeight();
  const ScoreResult fresh = service.Score(address);
  ASSERT_TRUE(fresh.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.ledger_height, old_height + 1);
  // The fresh score replaced the entry: the next request hits it.
  const ScoreResult again = service.Score(address);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.ledger_height, old_height + 1);
  EXPECT_EQ(service.StatsSnapshot().cold.count, 2u);
}

// --------------------------------------------------------------------------
// Resilience: deadlines, load shedding, degraded (stale) serving
// --------------------------------------------------------------------------

TEST_F(ServeIntegrationTest, ExpiredDeadlineResolvesWithoutForwardPass) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 2u);
  // The only worker is held inside exchanges[1]'s pass while the deadline
  // of the request queued behind it runs out.
  GatedLedger gated(*ledger_, /*gate_id=*/exchanges[1]);
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(1), &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  std::future<ScoreResult> held = service.ScoreAsync(exchanges[1]);
  ASSERT_TRUE(gated.WaitUntilEntered());
  std::future<ScoreResult> expiring =
      service.ScoreAsync(exchanges[0], /*deadline_us=*/2'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gated.Open();
  const ScoreResult result = expiring.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(held.get().ok());

  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.cold.count, 1u);  // Only the held request was scored.
  EXPECT_EQ(stats.requests, 1u);    // Expiry is not a served request...
  EXPECT_EQ(stats.errors, 0u);      // ...and not an error either.
}

TEST_F(ServeIntegrationTest, SaturatedQueueShedsWithResourceExhausted) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);
  GatedLedger gated(*ledger_, /*gate_id=*/exchanges[0]);
  std::stringstream checkpoint(*checkpoint_);
  InferenceServiceConfig config = ServiceConfig(1);
  config.queue_capacity = 2;
  auto created = InferenceService::Create(config, &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  // The only worker is held inside exchanges[0]'s pass, so the next two
  // requests stay queued.
  std::future<ScoreResult> held = service.ScoreAsync(exchanges[0]);
  ASSERT_TRUE(gated.WaitUntilEntered());
  std::future<ScoreResult> queued1 = service.ScoreAsync(exchanges[1]);
  std::future<ScoreResult> queued2 = service.ScoreAsync(exchanges[2]);
  // Capacity 2 is exhausted: admission control must answer immediately
  // instead of blocking this thread until the worker frees up.
  const ScoreResult shed = service.ScoreAsync(exchanges[3]).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);

  gated.Open();
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServeIntegrationTest, OverloadServesStaleScoreFromPreviousHeight) {
  eth::AppendableLedger growable(*ledger_);
  const auto exchanges =
      growable.AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 3u);
  const eth::AccountId address = exchanges[0];
  GatedLedger gated(growable, /*gate_id=*/exchanges[1]);
  gated.Open();  // The warm-up runs ungated.
  std::stringstream checkpoint(*checkpoint_);
  InferenceServiceConfig config = ServiceConfig(1);
  config.queue_capacity = 1;
  auto created = InferenceService::Create(config, &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  // Warm the cache at the current height.
  const ScoreResult cold = service.Score(address);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  const uint64_t old_height = service.ledger_height();

  // The chain advances. The entry scored at the superseded height stays
  // as the account's degraded-mode answer.
  eth::Transaction tx = growable.transactions().back();
  tx.timestamp += 1.0;
  ASSERT_TRUE(growable.Append(tx).ok());
  service.RefreshLedgerHeight();
  ASSERT_EQ(service.ledger_height(), old_height + 1);

  // Hold the only worker inside exchanges[1]'s pass and fill the queue
  // (capacity 1) with another request, then ask for the grown-height
  // score: it misses the cache, cannot be admitted, and degrades to the
  // stale entry instead of shedding.
  gated.Close();
  std::future<ScoreResult> held = service.ScoreAsync(exchanges[1]);
  ASSERT_TRUE(gated.WaitUntilEntered());
  std::future<ScoreResult> blocker = service.ScoreAsync(exchanges[2]);
  const ScoreResult stale = service.ScoreAsync(address).get();
  ASSERT_TRUE(stale.ok()) << stale.status.ToString();
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.ledger_height, old_height);
  EXPECT_DOUBLE_EQ(stale.probability, cold.probability);
  gated.Open();
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(blocker.get().ok());

  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.stale_served, 1u);
  EXPECT_EQ(stats.stale.count, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.requests, 4u);  // Three cold scores + one stale serve.
}

TEST_F(ServeIntegrationTest, OverloadServesTheNewestOlderScoreWithItsGeneration) {
  eth::AppendableLedger growable(*ledger_);
  const auto exchanges =
      growable.AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 3u);
  const eth::AccountId address = exchanges[0];
  GatedLedger gated(growable, /*gate_id=*/exchanges[1]);
  gated.Open();  // The warm-up runs ungated.
  std::stringstream checkpoint(*checkpoint_);
  InferenceServiceConfig config = ServiceConfig(1);
  config.queue_capacity = 1;
  auto created = InferenceService::Create(config, &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();
  const auto grow = [&] {
    eth::Transaction tx = growable.transactions().back();
    tx.timestamp += 1.0;
    ASSERT_TRUE(growable.Append(tx).ok());
    service.RefreshLedgerHeight();
  };

  // h0, scored by generation 0.
  ASSERT_TRUE(service.Score(address).ok());
  // h1, re-scored by generation 7.
  service.SwapModel(LoadModel(), /*generation=*/7);
  grow();
  const uint64_t h1 = service.ledger_height();
  const ScoreResult at_h1 = service.Score(address);
  ASSERT_TRUE(at_h1.ok()) << at_h1.status.ToString();
  ASSERT_FALSE(at_h1.cache_hit);
  ASSERT_EQ(at_h1.model_generation, 7u);
  // h2: the overloaded request gets the h1 score, stamped with the
  // generation that scored it.
  grow();
  ASSERT_EQ(service.ledger_height(), h1 + 1);
  gated.Close();
  std::future<ScoreResult> held = service.ScoreAsync(exchanges[1]);
  ASSERT_TRUE(gated.WaitUntilEntered());
  std::future<ScoreResult> blocker = service.ScoreAsync(exchanges[2]);
  const ScoreResult stale = service.ScoreAsync(address).get();
  gated.Open();
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(blocker.get().ok());
  ASSERT_TRUE(stale.ok()) << stale.status.ToString();
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.ledger_height, h1);
  EXPECT_EQ(stale.probability, at_h1.probability);
  EXPECT_EQ(stale.model_generation, 7u);
}

TEST_F(ServeIntegrationTest, LateOlderPassDoesNotReplaceANewerScore) {
  eth::AppendableLedger growable(*ledger_);
  const auto exchanges =
      growable.AccountsOfClass(eth::AccountClass::kExchange);
  const eth::AccountId address = exchanges[0];
  // The first pass over `address` parks at the gate; later ones run.
  GatedLedger gated(growable, /*gate_id=*/address);
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();
  if (service.num_workers() < 2) {
    GTEST_SKIP() << "needs two hardware threads for two workers";
  }

  const uint64_t h0 = service.ledger_height();
  std::future<ScoreResult> late = service.ScoreAsync(address);
  ASSERT_TRUE(gated.WaitUntilEntered());
  eth::Transaction tx = growable.transactions().back();
  tx.timestamp += 1.0;
  ASSERT_TRUE(growable.Append(tx).ok());
  service.RefreshLedgerHeight();
  const ScoreResult newer = service.Score(address);
  ASSERT_TRUE(newer.ok()) << newer.status.ToString();
  ASSERT_EQ(newer.ledger_height, h0 + 1);

  // The h0 pass finishes after the h1 score was cached.
  gated.Open();
  const ScoreResult older = late.get();
  ASSERT_TRUE(older.ok()) << older.status.ToString();
  EXPECT_EQ(older.ledger_height, h0);
  const ScoreResult hit = service.Score(address);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.ledger_height, h0 + 1);
  EXPECT_EQ(hit.probability, newer.probability);
}

// --------------------------------------------------------------------------
// In-flight sharing, failing passes, cache accounting, worker clamp
// --------------------------------------------------------------------------

TEST_F(ServeIntegrationTest, OverlappingDuplicatesShareOneForwardPass) {
  obs::Tracer* tracer = obs::Tracer::Global();
  tracer->SetSampleEveryN(1);
  tracer->Clear();

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);
  // One worker is held inside exchanges[0]'s pass; its duplicate and
  // three distinct requests reach the other worker meanwhile.
  GatedLedger gated(*ledger_, /*gate_id=*/exchanges[0]);
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();
  if (service.num_workers() < 2) {
    GTEST_SKIP() << "needs two hardware threads for two workers";
  }

  const std::vector<eth::AccountId> addresses = {
      exchanges[0], exchanges[0], exchanges[1], exchanges[2], exchanges[3]};
  std::vector<std::string> trace_ids;
  std::vector<std::future<ScoreResult>> futures;
  for (eth::AccountId address : addresses) {
    if (futures.size() == 1) {
      ASSERT_TRUE(gated.WaitUntilEntered());
    }
    trace_ids.push_back(obs::GenerateTraceId());
    futures.push_back(
        service.ScoreAsync(address, /*deadline_us=*/0, trace_ids.back()));
  }
  // The free worker takes the rest in order: it attaches the duplicate to
  // the held pass, then scores each distinct request while that pass is
  // still open.
  for (size_t i = 2; i < futures.size(); ++i) futures[i].wait();
  EXPECT_EQ(futures[0].wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(futures[1].wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  gated.Open();
  std::vector<ScoreResult> results;
  for (auto& future : futures) results.push_back(future.get());

  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status.ToString();
    auto inst = eth::MaterializeInstance(*ledger_, addresses[i], Sampling(),
                                         kTimeSlices);
    ASSERT_TRUE(inst.ok());
    model_->Normalize(&inst.ValueOrDie());
    EXPECT_EQ(results[i].probability, model_->PredictProba(inst.ValueOrDie()))
        << "address " << addresses[i];
  }
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_TRUE(results[1].cache_hit);  // Shared the held request's pass.

  // The gated key was scored once: one score_cold tree, the held
  // request's.
  int gated_trees = 0;
  for (const obs::SpanNode& root : tracer->Snapshot()) {
    if (root.name == "score_cold" &&
        (root.trace_id == trace_ids[0] || root.trace_id == trace_ids[1])) {
      ++gated_trees;
    }
  }
  EXPECT_EQ(gated_trees, 1);
  EXPECT_TRUE(tracer->FindTrace(trace_ids[0]).has_value());

  // Every distinct request carries its own full pipeline tree, stamped
  // with its own trace id.
  for (size_t i = 2; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].cache_hit);
    const auto tree = tracer->FindTrace(trace_ids[i]);
    ASSERT_TRUE(tree.has_value()) << "no span tree for request " << i;
    EXPECT_EQ(tree->name, "score_cold");
    for (const char* stage : {"gsg_forward", "ldg_forward", "gbdt"}) {
      EXPECT_NE(obs::FindSpan(*tree, stage), nullptr)
          << "request " << i << " has no " << stage << " span";
    }
  }

  // Four passes for five requests: the held one resolved two.
  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_DOUBLE_EQ(stats.avg_batch_size, 5.0 / 4.0);
}

TEST_F(ServeIntegrationTest, WorkerSurvivesAThrowingScore) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const eth::AccountId healthy = exchanges[0];
  auto inst =
      eth::MaterializeInstance(*ledger_, healthy, Sampling(), kTimeSlices);
  ASSERT_TRUE(inst.ok());
  // The poisoned account lies outside the healthy address's subgraph, so
  // scoring the healthy address never reads it.
  const std::vector<eth::AccountId>& nodes = inst.ValueOrDie().subgraph.nodes;
  eth::AccountId poison = -1;
  for (const eth::Account& account : ledger_->accounts()) {
    if (std::find(nodes.begin(), nodes.end(), account.id) == nodes.end()) {
      poison = account.id;
      break;
    }
  }
  ASSERT_GE(poison, 0);
  model_->Normalize(&inst.ValueOrDie());
  const double healthy_expected = model_->PredictProba(inst.ValueOrDie());

  GatedLedger poisoned(*ledger_, /*gate_id=*/-1, /*poison_id=*/poison);
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(1), &checkpoint, &poisoned);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const ScoreResult thrown = service.Score(poison);
  EXPECT_EQ(thrown.status.code(), StatusCode::kInternal);
  EXPECT_EQ(service.StatsSnapshot().errors, 1u);

  // The only worker is still serving.
  const ScoreResult next = service.Score(healthy);
  ASSERT_TRUE(next.ok()) << next.status.ToString();
  EXPECT_FALSE(next.cache_hit);
  EXPECT_EQ(next.probability, healthy_expected);

  // The failed pass left the in-flight table: the same key runs (and
  // fails) again instead of waiting on a dead pass.
  EXPECT_EQ(service.Score(poison).status.code(), StatusCode::kInternal);
  const ServerStats::Snapshot stats = service.StatsSnapshot();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.requests, 1u);
}

TEST_F(ServeIntegrationTest, EachColdScoreBooksOneCacheMiss) {
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(2), &checkpoint, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  constexpr size_t kDistinct = 4;
  ASSERT_GE(exchanges.size(), kDistinct);
  std::vector<std::future<ScoreResult>> cold;
  for (size_t i = 0; i < kDistinct; ++i) {
    cold.push_back(service.ScoreAsync(exchanges[i]));
  }
  for (auto& future : cold) ASSERT_TRUE(future.get().ok());
  for (size_t i = 0; i < kDistinct; ++i) {
    ASSERT_TRUE(service.Score(exchanges[i]).cache_hit);
  }

  // Each request's lookup is booked once, at admission, in the service's
  // own registry: the worker's re-check of each cold request books
  // nothing, and the global registry holds no serving-event family.
  std::map<std::string, uint64_t> cache_events;
  for (const auto& family : service.metrics().TakeSnapshot()) {
    if (family.name != "serve_cache_events_total") continue;
    for (const auto& inst : family.instruments) {
      cache_events[inst.labels] = inst.counter_value;
    }
  }
  EXPECT_EQ(cache_events["{outcome=\"miss\"}"], kDistinct);
  EXPECT_EQ(cache_events["{outcome=\"hit\"}"], kDistinct);
  for (const auto& family : obs::MetricsRegistry::Global()->TakeSnapshot()) {
    EXPECT_NE(family.name, "serve_requests_total");
    EXPECT_NE(family.name, "serve_cache_events_total");
  }
}

/// The global registry's instrument of family `name` (families holding one
/// unlabelled instrument); zero-valued when the family is not registered
/// yet.
obs::MetricsRegistry::InstrumentSnapshot GlobalInstrument(
    const std::string& name) {
  for (const auto& family : obs::MetricsRegistry::Global()->TakeSnapshot()) {
    if (family.name == name && !family.instruments.empty()) {
      return family.instruments.front();
    }
  }
  return {};
}

// The admission queue's families live in the global registry: the wait of
// every picked-up request, and the depth left behind at each pick-up.
TEST_F(ServeIntegrationTest, QueueWaitAndDepthTrackRequestsWaitingForAWorker) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 2u);
  GatedLedger gated(*ledger_, /*gate_id=*/exchanges[0]);
  std::stringstream checkpoint(*checkpoint_);
  auto created =
      InferenceService::Create(ServiceConfig(1), &checkpoint, &gated);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();
  const obs::Histogram::Snapshot before =
      GlobalInstrument("serve_queue_wait_us").histogram;

  // The only worker is held inside exchanges[0]'s pass while the next
  // request waits for it for at least 20 ms.
  std::future<ScoreResult> held = service.ScoreAsync(exchanges[0]);
  ASSERT_TRUE(gated.WaitUntilEntered());
  std::future<ScoreResult> queued = service.ScoreAsync(exchanges[1]);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gated.Open();
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(queued.get().ok());

  const obs::Histogram::Snapshot after =
      GlobalInstrument("serve_queue_wait_us").histogram;
  EXPECT_EQ(after.count - before.count, 2u);
  EXPECT_GE(after.sum - before.sum, 20'000.0);
  EXPECT_EQ(GlobalInstrument("serve_queue_depth").gauge_value, 0.0);
}

TEST_F(ServeIntegrationTest, WorkerCountClampsToHardwareConcurrency) {
  const int hardware = ResolveNumThreads(0);

  std::stringstream oversubscribed(*checkpoint_);
  auto created = InferenceService::Create(ServiceConfig(hardware + 63),
                                          &oversubscribed, ledger_);
  ASSERT_TRUE(created.ok());
  auto& service = *created.ValueOrDie();
  EXPECT_EQ(service.num_workers(), hardware);
  EXPECT_EQ(service.StatsSnapshot().workers, hardware);

  std::stringstream automatic(*checkpoint_);
  auto auto_created =
      InferenceService::Create(ServiceConfig(0), &automatic, ledger_);
  ASSERT_TRUE(auto_created.ok());
  EXPECT_EQ(auto_created.ValueOrDie()->num_workers(), hardware);

  std::stringstream modest(*checkpoint_);
  auto modest_created =
      InferenceService::Create(ServiceConfig(1), &modest, ledger_);
  ASSERT_TRUE(modest_created.ok());
  EXPECT_EQ(modest_created.ValueOrDie()->num_workers(), 1);
}

TEST_F(ServeIntegrationTest, AppendableLedgerGrowsAndIndexes) {
  eth::AppendableLedger growable(*ledger_);
  const size_t base_txs = ledger_->transactions().size();
  ASSERT_EQ(growable.transactions().size(), base_txs);
  ASSERT_EQ(growable.accounts().size(), ledger_->accounts().size());
  const eth::AccountId a = 0, b = 1;
  const size_t a_before = growable.TransactionsOf(a).size();

  eth::Transaction tx;
  tx.from = a;
  tx.to = b;
  tx.value = 1.0;
  tx.timestamp = growable.transactions().back().timestamp + 5.0;
  ASSERT_TRUE(growable.Append(tx).ok());
  EXPECT_EQ(growable.transactions().size(), base_txs + 1);
  EXPECT_EQ(growable.TransactionsOf(a).size(), a_before + 1);
  EXPECT_EQ(growable.TransactionsOf(a).back(),
            static_cast<int>(base_txs));
  // The counterparty index grows with it: {b, value} under a, {a, value}
  // under b.
  EXPECT_EQ(growable.CounterpartiesOf(a).back().peer, b);
  EXPECT_EQ(growable.CounterpartiesOf(a).back().value, tx.value);
  EXPECT_EQ(growable.CounterpartiesOf(b).back().peer, a);
  EXPECT_EQ(growable.CounterpartiesOf(b).back().value, tx.value);

  // A self-transfer is one entry, whose peer is the account itself.
  const size_t b_before = growable.CounterpartiesOf(b).size();
  eth::Transaction self = tx;
  self.from = self.to = b;
  self.value = 2.5;
  ASSERT_TRUE(growable.Append(self).ok());
  ASSERT_EQ(growable.CounterpartiesOf(b).size(), b_before + 1);
  EXPECT_EQ(growable.TransactionsOf(b).back(),
            static_cast<int>(base_txs + 1));
  EXPECT_EQ(growable.CounterpartiesOf(b).back().peer, b);
  EXPECT_EQ(growable.CounterpartiesOf(b).back().value, 2.5);

  // Both indexes stay aligned entry for entry on every account.
  for (const eth::Account& account : growable.accounts()) {
    ASSERT_EQ(growable.TransactionsOf(account.id).size(),
              growable.CounterpartiesOf(account.id).size())
        << "account " << account.id;
  }

  // Violations are rejected: unknown endpoint, time running backwards.
  eth::Transaction bad = tx;
  bad.to = 999'999'999;
  EXPECT_FALSE(growable.Append(bad).ok());
  bad = tx;
  bad.timestamp = 0.0;
  EXPECT_FALSE(growable.Append(bad).ok());
}

}  // namespace
}  // namespace serve
}  // namespace dbg4eth
