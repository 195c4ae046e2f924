#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/baselines.h"
#include "core/dbg4eth.h"
#include "core/experiment.h"
#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "eth/dataset.h"
#include "eth/ledger.h"

namespace dbg4eth {
namespace core {
namespace {

/// Small shared workload for the end-to-end tests: one ledger, tiny
/// datasets, tiny models — enough to exercise every pipeline stage.
class CorePipelineTest : public ::testing::Test {
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
  }
  static void TearDownTestSuite() {
    delete ledger_;
    ledger_ = nullptr;
  }

  static eth::SubgraphDataset MakeDataset(eth::AccountClass target,
                                          int slices = 4) {
    eth::DatasetConfig config;
    config.target = target;
    config.max_positives = 12;
    config.sampling.top_k = 5;
    config.sampling.max_nodes = 40;
    config.num_time_slices = slices;
    config.seed = 5;
    auto result = eth::BuildDataset(*ledger_, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  static GsgEncoderConfig TinyGsgConfig() {
    GsgEncoderConfig config;
    config.hidden_dim = 12;
    config.num_heads = 2;
    config.epochs = 3;
    config.batch_size = 8;
    return config;
  }

  static LdgEncoderConfig TinyLdgConfig(int slices = 4) {
    LdgEncoderConfig config;
    config.hidden_dim = 12;
    config.num_time_slices = slices;
    config.first_level_clusters = 4;
    config.epochs = 2;
    return config;
  }

  static eth::LedgerSimulator* ledger_;
};

eth::LedgerSimulator* CorePipelineTest::ledger_ = nullptr;

TEST_F(CorePipelineTest, GsgEncoderBuildNodeInputShape) {
  auto ds = MakeDataset(eth::AccountClass::kExchange);
  const auto& g = ds.instances.front().gsg;
  Matrix input = GsgEncoder::BuildNodeInput(g);
  EXPECT_EQ(input.rows(), g.num_nodes);
  EXPECT_EQ(input.cols(), 17);  // 15 features + 2 edge aggregates
  EXPECT_TRUE(input.AllFinite());
}

TEST_F(CorePipelineTest, GsgEncoderTrainsAndScores) {
  auto ds = MakeDataset(eth::AccountClass::kExchange);
  std::vector<int> train_idx;
  for (int i = 0; i < ds.num_graphs(); ++i) train_idx.push_back(i);
  eth::StandardizeDataset(&ds, train_idx);
  GsgEncoder encoder(TinyGsgConfig());
  ASSERT_TRUE(encoder.Train(ds, train_idx).ok());
  for (const auto& inst : ds.instances) {
    const double score = encoder.PredictScore(inst.gsg);
    EXPECT_TRUE(std::isfinite(score));
  }
  EXPECT_FALSE(encoder.Train(ds, {}).ok());
}

TEST_F(CorePipelineTest, GsgEncoderContrastiveToggleChangesTraining) {
  auto ds = MakeDataset(eth::AccountClass::kExchange);
  std::vector<int> all_idx;
  for (int i = 0; i < ds.num_graphs(); ++i) all_idx.push_back(i);
  eth::StandardizeDataset(&ds, all_idx);

  GsgEncoderConfig with = TinyGsgConfig();
  GsgEncoderConfig without = TinyGsgConfig();
  without.use_contrastive = false;
  GsgEncoder enc_with(with);
  GsgEncoder enc_without(without);
  ASSERT_TRUE(enc_with.Train(ds, all_idx).ok());
  ASSERT_TRUE(enc_without.Train(ds, all_idx).ok());
  // Same seeds, different objectives: scores must diverge.
  bool any_diff = false;
  for (const auto& inst : ds.instances) {
    if (std::fabs(enc_with.PredictScore(inst.gsg) -
                  enc_without.PredictScore(inst.gsg)) > 1e-9) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(CorePipelineTest, LdgEncoderTrainsAndScores) {
  auto ds = MakeDataset(eth::AccountClass::kPhishHack);
  std::vector<int> train_idx;
  for (int i = 0; i < ds.num_graphs(); ++i) train_idx.push_back(i);
  eth::StandardizeDataset(&ds, train_idx);
  LdgEncoder encoder(TinyLdgConfig());
  ASSERT_TRUE(encoder.Train(ds, train_idx).ok());
  for (const auto& inst : ds.instances) {
    EXPECT_TRUE(std::isfinite(encoder.PredictScore(inst.ldg)));
  }
}

TEST_F(CorePipelineTest, LdgEncoderRejectsSliceMismatch) {
  auto ds = MakeDataset(eth::AccountClass::kPhishHack, /*slices=*/4);
  std::vector<int> train_idx = {0, 1};
  LdgEncoder encoder(TinyLdgConfig(/*slices=*/6));
  EXPECT_FALSE(encoder.Train(ds, train_idx).ok());
}

TEST_F(CorePipelineTest, Dbg4EthEndToEnd) {
  auto ds = MakeDataset(eth::AccountClass::kExchange);
  Dbg4EthConfig config;
  config.gsg = TinyGsgConfig();
  config.ldg = TinyLdgConfig();
  config.gbdt.num_trees = 15;
  config.gbdt.tree.min_samples_leaf = 2;
  auto result = Dbg4Eth(config).TrainAndEvaluate(&ds);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EvaluationReport& report = result.ValueOrDie();
  EXPECT_FALSE(report.test_labels.empty());
  EXPECT_EQ(report.test_labels.size(), report.test_probs.size());
  for (double p : report.test_probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_GE(report.metrics.f1, 0.0);
  EXPECT_LE(report.metrics.f1, 1.0);
  // Calibration introspection present for both branches (6 methods each).
  EXPECT_EQ(report.gsg_calibration.size(), 6u);
  EXPECT_EQ(report.ldg_calibration.size(), 6u);
}

TEST_F(CorePipelineTest, Dbg4EthAblationsRun) {
  // Every Table IV toggle combination must run end to end.
  struct Case {
    bool use_gsg, use_ldg, use_calibration;
    HeadKind head;
  };
  const std::vector<Case> cases = {
      {false, true, true, HeadKind::kLightGbm},   // w/o GSG
      {true, false, true, HeadKind::kLightGbm},   // w/o LDG
      {true, true, false, HeadKind::kLightGbm},   // w/o calibration
      {true, true, true, HeadKind::kMlp},         // w/o LightGBM
  };
  auto base_ds = MakeDataset(eth::AccountClass::kBridge);
  for (const Case& c : cases) {
    auto ds = base_ds;  // fresh copy per run
    Dbg4EthConfig config;
    config.gsg = TinyGsgConfig();
    config.ldg = TinyLdgConfig();
    config.use_gsg = c.use_gsg;
    config.use_ldg = c.use_ldg;
    config.use_calibration = c.use_calibration;
    config.head = c.head;
    config.gbdt.num_trees = 10;
    config.gbdt.tree.min_samples_leaf = 2;
    auto result = Dbg4Eth(config).TrainAndEvaluate(&ds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!c.use_calibration) {
      EXPECT_TRUE(result.ValueOrDie().gsg_calibration.empty());
    }
    if (!c.use_gsg) {
      EXPECT_TRUE(result.ValueOrDie().gsg_calibration.empty());
    }
  }
}

TEST_F(CorePipelineTest, HeadKindNamesAreStable) {
  EXPECT_STREQ(HeadKindName(HeadKind::kLightGbm), "lightgbm");
  EXPECT_STREQ(HeadKindName(HeadKind::kMlp), "mlp");
  for (HeadKind kind : {HeadKind::kLightGbm, HeadKind::kXgboost,
                        HeadKind::kMlp, HeadKind::kRandomForest,
                        HeadKind::kAdaBoost}) {
    EXPECT_NE(MakeHead(kind, ml::GbdtConfig()), nullptr);
  }
}

class BaselineParamTest : public CorePipelineTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(BaselineParamTest, RunsEndToEnd) {
  const BaselineKind kind = AllBaselines()[GetParam()];
  auto ds = MakeDataset(eth::AccountClass::kExchange);
  BaselineConfig config;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.epochs = 2;
  config.walks_per_node = 2;
  config.walk_length = 8;
  config.embedding_dim = 8;
  auto result = RunBaseline(kind, &ds, config);
  ASSERT_TRUE(result.ok()) << BaselineName(kind) << ": "
                           << result.status().ToString();
  const EvaluationReport& report = result.ValueOrDie();
  EXPECT_FALSE(report.test_labels.empty()) << BaselineName(kind);
  for (double p : report.test_probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEighteen, BaselineParamTest,
                         ::testing::Range(0, 18));

TEST(BaselineNamesTest, AllDistinct) {
  auto all = AllBaselines();
  EXPECT_EQ(all.size(), 18u);
  std::set<std::string> names;
  for (BaselineKind kind : all) names.insert(BaselineName(kind));
  EXPECT_EQ(names.size(), all.size());
}

TEST(ExperimentTest, DefaultConfigsSane) {
  ExperimentConfig config = DefaultExperimentConfig();
  EXPECT_GT(config.scale, 0.0);
  EXPECT_GE(config.sampling.hops, 2);
  Dbg4EthConfig model = DefaultModelConfig();
  EXPECT_TRUE(model.use_gsg);
  EXPECT_TRUE(model.use_ldg);
  EXPECT_EQ(ExperimentWorkload::MainClasses().size(), 4u);
  EXPECT_EQ(ExperimentWorkload::NovelClasses().size(), 2u);
}

TEST(CrossValidateTest, FoldsAverageAndValidate) {
  eth::LedgerConfig lc;
  lc.num_normal = 600;
  lc.num_exchange = 16;
  lc.duration_days = 90.0;
  lc.seed = 66;
  eth::LedgerSimulator ledger(lc);
  ASSERT_TRUE(ledger.Generate().ok());
  eth::DatasetConfig dc;
  dc.target = eth::AccountClass::kExchange;
  dc.max_positives = 14;
  dc.sampling.top_k = 5;
  dc.sampling.max_nodes = 40;
  dc.num_time_slices = 4;
  auto ds = std::move(eth::BuildDataset(ledger, dc)).ValueOrDie();

  Dbg4EthConfig config;
  config.gsg.hidden_dim = 12;
  config.gsg.epochs = 3;
  config.ldg.hidden_dim = 12;
  config.ldg.epochs = 2;
  config.ldg.first_level_clusters = 4;
  config.gbdt.num_trees = 10;

  auto cv = CrossValidate(config, ds, /*num_folds=*/3, /*seed=*/9);
  ASSERT_TRUE(cv.ok()) << cv.status().ToString();
  const CrossValidationResult& result = cv.ValueOrDie();
  ASSERT_EQ(result.folds.size(), 3u);
  // Every instance appears in exactly one fold's test set.
  size_t total_test = 0;
  for (const auto& fold : result.folds) total_test += fold.test_labels.size();
  EXPECT_EQ(total_test, static_cast<size_t>(ds.num_graphs()));
  EXPECT_GE(result.mean.f1, 0.0);
  EXPECT_LE(result.mean.f1, 1.0);
  EXPECT_GE(result.f1_stddev, 0.0);

  // Error paths.
  EXPECT_FALSE(CrossValidate(config, ds, 1, 9).ok());
  EXPECT_FALSE(CrossValidate(config, ds, 50, 9).ok());
}

}  // namespace
}  // namespace core
}  // namespace dbg4eth
