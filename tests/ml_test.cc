#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "ml/ensemble.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/split.h"

namespace dbg4eth {
namespace ml {
namespace {

/// Two interleaved Gaussian blobs with a nonlinear (XOR-ish) boundary.
void MakeXorData(int n, uint64_t seed, Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    const double a = rng.Normal(0, 1);
    const double b = rng.Normal(0, 1);
    x->At(i, 0) = a;
    x->At(i, 1) = b;
    (*y)[i] = (a * b > 0) ? 1 : 0;
  }
}

double Accuracy(const BinaryClassifier& model, const Matrix& x,
                const std::vector<int>& y) {
  const auto preds = model.PredictAll(x);
  int correct = 0;
  for (size_t i = 0; i < y.size(); ++i) correct += preds[i] == y[i];
  return static_cast<double>(correct) / y.size();
}

// --- Metrics ---

TEST(MetricsTest, PerfectPrediction) {
  std::vector<int> y = {1, 0, 1, 0};
  auto m = ComputeBinaryMetrics(y, y);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
}

TEST(MetricsTest, ConstantPredictorMatchesPaperDegenerateRow) {
  // Balanced set, always predict 0: macro P=25, R=50, F1=33.33 — the exact
  // pattern of Table III's "w/o node feature" degenerate rows.
  std::vector<int> y_true = {1, 1, 0, 0};
  std::vector<int> y_pred = {0, 0, 0, 0};
  auto m = ComputeBinaryMetrics(y_true, y_pred);
  EXPECT_NEAR(m.precision, 0.25, 1e-12);
  EXPECT_NEAR(m.recall, 0.50, 1e-12);
  EXPECT_NEAR(m.f1, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.accuracy, 0.50, 1e-12);
}

TEST(MetricsTest, ConfusionCounts) {
  std::vector<int> y_true = {1, 1, 0, 0, 1};
  std::vector<int> y_pred = {1, 0, 0, 1, 1};
  auto cm = ComputeConfusion(y_true, y_pred);
  EXPECT_EQ(cm.tp, 2);
  EXPECT_EQ(cm.fn, 1);
  EXPECT_EQ(cm.tn, 1);
  EXPECT_EQ(cm.fp, 1);
}

TEST(MetricsTest, RocAucPerfectAndRandom) {
  std::vector<int> y = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(RocAuc(y, {0.1, 0.2, 0.8, 0.9}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc(y, {0.9, 0.8, 0.2, 0.1}), 0.0);
  EXPECT_NEAR(RocAuc(y, {0.5, 0.5, 0.5, 0.5}), 0.5, 1e-12);
}

TEST(MetricsTest, RocCurveEndpoints) {
  std::vector<int> y = {0, 1, 0, 1, 1};
  std::vector<double> s = {0.3, 0.9, 0.1, 0.6, 0.4};
  auto curve = RocCurve(y, s);
  EXPECT_DOUBLE_EQ(curve.front().fpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  // Monotone non-decreasing.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
  }
}

// --- Splits ---

TEST(SplitTest, StratifiedProportions) {
  std::vector<int> labels(100, 0);
  for (int i = 0; i < 40; ++i) labels[i] = 1;
  Rng rng(3);
  auto split = StratifiedSplit(labels, 0.6, 0.2, &rng);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 100u);
  auto positives = [&](const std::vector<int>& idx) {
    int count = 0;
    for (int i : idx) count += labels[i];
    return count;
  };
  EXPECT_EQ(positives(split.train), 24);
  EXPECT_EQ(positives(split.val), 8);
  EXPECT_EQ(positives(split.test), 8);
}

TEST(SplitTest, NoOverlap) {
  std::vector<int> labels(50, 0);
  for (int i = 0; i < 25; ++i) labels[i] = 1;
  Rng rng(5);
  auto split = StratifiedSplit(labels, 0.5, 0.25, &rng);
  std::vector<bool> seen(50, false);
  for (const auto* part : {&split.train, &split.val, &split.test}) {
    for (int i : *part) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
}

TEST(SplitTest, FoldsBalanced) {
  std::vector<int> labels(60, 0);
  for (int i = 0; i < 30; ++i) labels[i] = 1;
  Rng rng(7);
  auto folds = StratifiedFolds(labels, 5, &rng);
  std::vector<int> counts(5, 0);
  for (int f : folds) ++counts[f];
  for (int c : counts) EXPECT_EQ(c, 12);
}

// --- Classifiers: all learn the XOR task ---

class ClassifierParamTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<BinaryClassifier> MakeClassifier() {
    switch (GetParam()) {
      case 0:
        return std::make_unique<GbdtClassifier>();
      case 1: {
        GbdtConfig config;
        return std::make_unique<GbdtClassifier>(
            GbdtClassifier::XgboostStyle(config));
      }
      case 2:
        return std::make_unique<RandomForestClassifier>();
      case 3:
        return std::make_unique<AdaBoostClassifier>();
      default:
        return std::make_unique<MlpClassifier>();
    }
  }
};

TEST_P(ClassifierParamTest, LearnsNonlinearBoundary) {
  Matrix x_train, x_test;
  std::vector<int> y_train, y_test;
  MakeXorData(400, 11, &x_train, &y_train);
  MakeXorData(200, 13, &x_test, &y_test);
  auto model = MakeClassifier();
  ASSERT_TRUE(model->Train(x_train, y_train).ok()) << model->name();
  // AdaBoost over axis-aligned stumps cannot represent XOR (every stump is
  // ~chance, so boosting stops immediately); it only needs to stay at
  // chance level. The others should be strong.
  const double min_acc = model->name() == "adaboost" ? 0.40 : 0.85;
  EXPECT_GT(Accuracy(*model, x_test, y_test), min_acc) << model->name();
}

TEST_P(ClassifierParamTest, ProbabilitiesAreValid) {
  Matrix x;
  std::vector<int> y;
  MakeXorData(200, 17, &x, &y);
  auto model = MakeClassifier();
  ASSERT_TRUE(model->Train(x, y).ok());
  for (double p : model->PredictProbaAll(x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(ClassifierParamTest, RejectsEmptyTrainingSet) {
  auto model = MakeClassifier();
  Matrix empty(0, 2);
  EXPECT_FALSE(model->Train(empty, {}).ok());
}

TEST_P(ClassifierParamTest, RejectsNonFiniteFeatures) {
  Matrix x;
  std::vector<int> y;
  MakeXorData(40, 19, &x, &y);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix poisoned = x;
    poisoned.At(7, 1) = bad;
    auto model = MakeClassifier();
    EXPECT_EQ(model->Train(poisoned, y).code(), StatusCode::kInvalidArgument)
        << model->name() << " accepted " << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, ClassifierParamTest,
                         ::testing::Range(0, 5));

TEST(GbdtTest, LeafWiseUsesConfiguredBudget) {
  Matrix x;
  std::vector<int> y;
  MakeXorData(300, 19, &x, &y);
  GbdtConfig config;
  config.num_trees = 10;
  config.tree.max_leaves = 4;
  GbdtClassifier model(config);
  ASSERT_TRUE(model.Train(x, y).ok());
  EXPECT_GT(model.num_trees_used(), 0);
  EXPECT_LE(model.num_trees_used(), 10);
}

TEST(GbdtTest, SeparableDataGetsConfidentProbs) {
  Rng rng(21);
  Matrix x(200, 1);
  std::vector<int> y(200);
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    x.At(i, 0) = label ? rng.Normal(3, 0.3) : rng.Normal(-3, 0.3);
    y[i] = label;
  }
  GbdtClassifier model;
  ASSERT_TRUE(model.Train(x, y).ok());
  double row_pos = 3.0, row_neg = -3.0;
  EXPECT_GT(model.PredictProba(&row_pos), 0.9);
  EXPECT_LT(model.PredictProba(&row_neg), 0.1);
}

TEST(GbdtTest, ScoreIsLogitOfProba) {
  Matrix x;
  std::vector<int> y;
  MakeXorData(100, 23, &x, &y);
  GbdtClassifier model;
  ASSERT_TRUE(model.Train(x, y).ok());
  const double* row = x.RowPtr(0);
  const double p = model.PredictProba(row);
  const double score = model.PredictScore(row);
  EXPECT_NEAR(p, 1.0 / (1.0 + std::exp(-score)), 1e-12);
}

TEST(MlpTest, LogisticRegressionModeOnLinearData) {
  Rng rng(25);
  Matrix x(300, 2);
  std::vector<int> y(300);
  for (int i = 0; i < 300; ++i) {
    x.At(i, 0) = rng.Normal(0, 1);
    x.At(i, 1) = rng.Normal(0, 1);
    y[i] = x.At(i, 0) + x.At(i, 1) > 0 ? 1 : 0;
  }
  MlpConfig config;
  config.hidden_dims = {};  // pure logistic regression
  config.epochs = 400;
  MlpClassifier model(config);
  ASSERT_TRUE(model.Train(x, y).ok());
  EXPECT_GT(Accuracy(model, x, y), 0.95);
}

TEST(RandomForestTest, MoreTreesNotWorse) {
  Matrix x_train, x_test;
  std::vector<int> y_train, y_test;
  MakeXorData(300, 27, &x_train, &y_train);
  MakeXorData(200, 29, &x_test, &y_test);
  RandomForestConfig small;
  small.num_trees = 3;
  RandomForestConfig big;
  big.num_trees = 60;
  RandomForestClassifier forest_small(small);
  RandomForestClassifier forest_big(big);
  ASSERT_TRUE(forest_small.Train(x_train, y_train).ok());
  ASSERT_TRUE(forest_big.Train(x_train, y_train).ok());
  EXPECT_GE(Accuracy(forest_big, x_test, y_test) + 0.03,
            Accuracy(forest_small, x_test, y_test));
}

TEST(AdaBoostTest, LinearlySeparableIsEasy) {
  Rng rng(31);
  Matrix x(200, 2);
  std::vector<int> y(200);
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    x.At(i, 0) = label ? rng.Normal(2, 0.5) : rng.Normal(-2, 0.5);
    x.At(i, 1) = rng.Normal(0, 1);
    y[i] = label;
  }
  AdaBoostClassifier model;
  ASSERT_TRUE(model.Train(x, y).ok());
  EXPECT_GT(Accuracy(model, x, y), 0.95);
}

TEST(AdaBoostTest, DegenerateSingleClassData) {
  Matrix x(10, 1);
  std::vector<int> y(10, 1);
  for (int i = 0; i < 10; ++i) x.At(i, 0) = i;
  AdaBoostClassifier model;
  ASSERT_TRUE(model.Train(x, y).ok());
  double row = 5.0;
  EXPECT_GT(model.PredictProba(&row), 0.5);
}

}  // namespace
}  // namespace ml
}  // namespace dbg4eth
