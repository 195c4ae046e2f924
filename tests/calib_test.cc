#include <gtest/gtest.h>

#include <cmath>

#include "calib/adaptive.h"
#include "calib/ece.h"
#include "calib/nonparametric.h"
#include "calib/parametric.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace dbg4eth {
namespace calib {
namespace {

/// Synthetic miscalibrated data: true P(y=1|s) = sigmoid(4*(s-0.5)) but the
/// model reports s directly, so raw scores are overconfident near 0/1.
void MakeOverconfident(int n, uint64_t seed, std::vector<double>* scores,
                       std::vector<int>* labels) {
  Rng rng(seed);
  scores->clear();
  labels->clear();
  for (int i = 0; i < n; ++i) {
    const double s = rng.Uniform();
    const double true_p = Sigmoid(4.0 * (s - 0.5));
    scores->push_back(s * s * (3 - 2 * s));  // smoothstep: overconfident
    labels->push_back(rng.Bernoulli(true_p) ? 1 : 0);
  }
}

class CalibratorParamTest
    : public ::testing::TestWithParam<int> {};

TEST_P(CalibratorParamTest, ReducesEceOnMiscalibratedData) {
  auto calibrators = MakeAllCalibrators();
  ASSERT_LT(static_cast<size_t>(GetParam()), calibrators.size());
  Calibrator& cal = *calibrators[GetParam()];

  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(2000, 1234, &scores, &labels);
  ASSERT_TRUE(cal.Fit(scores, labels).ok());

  // Evaluate on held-out data from the same distribution.
  std::vector<double> test_scores;
  std::vector<int> test_labels;
  MakeOverconfident(2000, 777, &test_scores, &test_labels);
  const double before =
      ExpectedCalibrationError(test_scores, test_labels);
  const double after = ExpectedCalibrationError(
      cal.CalibrateAll(test_scores), test_labels);
  EXPECT_LT(after, before) << cal.name();
}

TEST_P(CalibratorParamTest, OutputsValidProbabilities) {
  auto calibrators = MakeAllCalibrators();
  Calibrator& cal = *calibrators[GetParam()];
  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(400, 5, &scores, &labels);
  ASSERT_TRUE(cal.Fit(scores, labels).ok());
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    const double p = cal.Calibrate(s);
    EXPECT_GE(p, 0.0) << cal.name();
    EXPECT_LE(p, 1.0) << cal.name();
  }
}

TEST_P(CalibratorParamTest, RejectsBadInput) {
  auto calibrators = MakeAllCalibrators();
  Calibrator& cal = *calibrators[GetParam()];
  EXPECT_FALSE(cal.Fit({}, {}).ok());
  EXPECT_FALSE(cal.Fit({0.5, 0.6}, {1}).ok());
}

/// Six scores in [0, 1] with `bad` in the middle, and their labels.
void MakeScoresWith(double bad, std::vector<double>* scores,
                    std::vector<int>* labels) {
  *scores = {0.1, 0.3, bad, 0.6, 0.8, 0.9};
  *labels = {0, 0, 1, 1, 0, 1};
}

const double kNonFinite[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};

TEST_P(CalibratorParamTest, RejectsNonFiniteScores) {
  for (double bad : kNonFinite) {
    auto calibrators = MakeAllCalibrators();
    Calibrator& cal = *calibrators[GetParam()];
    std::vector<double> scores;
    std::vector<int> labels;
    MakeScoresWith(bad, &scores, &labels);
    EXPECT_EQ(cal.Fit(scores, labels).code(), StatusCode::kInvalidArgument)
        << cal.name() << " accepted " << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSixMethods, CalibratorParamTest,
                         ::testing::Range(0, 6));

TEST(CalibratorSuiteTest, FamilySplitIsThreeAndThree) {
  auto calibrators = MakeAllCalibrators();
  ASSERT_EQ(calibrators.size(), 6u);
  int parametric = 0;
  for (const auto& c : calibrators) parametric += c->parametric() ? 1 : 0;
  EXPECT_EQ(parametric, 3);
}

TEST(TemperatureScalingTest, RecoversIdentityWhenCalibrated) {
  // Perfectly calibrated data: fitted T should stay near 1 and the map
  // near-identity.
  Rng rng(9);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 4000; ++i) {
    const double s = rng.Uniform();
    scores.push_back(s);
    labels.push_back(rng.Bernoulli(s) ? 1 : 0);
  }
  TemperatureScaling ts;
  ASSERT_TRUE(ts.Fit(scores, labels).ok());
  EXPECT_NEAR(ts.temperature(), 1.0, 0.25);
  EXPECT_NEAR(ts.Calibrate(0.7), 0.7, 0.05);
}

TEST(IsotonicTest, MonotonicOutput) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(600, 31, &scores, &labels);
  IsotonicRegression iso;
  ASSERT_TRUE(iso.Fit(scores, labels).ok());
  double prev = -1.0;
  for (double s = 0.0; s <= 1.0; s += 0.01) {
    const double p = iso.Calibrate(s);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(HistogramBinningTest, EmptyBinUsesPrior) {
  // All training scores in [0, 0.1): other bins fall back to midpoints.
  std::vector<double> scores(50, 0.05);
  std::vector<int> labels(50, 1);
  HistogramBinning hb(10);
  ASSERT_TRUE(hb.Fit(scores, labels).ok());
  EXPECT_NEAR(hb.Calibrate(0.95), 0.95, 0.01);  // prior midpoint of last bin
  EXPECT_GT(hb.Calibrate(0.05), 0.9);           // observed all-positive bin
}

TEST(EceTest, PerfectCalibrationNearZero) {
  Rng rng(17);
  std::vector<double> probs;
  std::vector<int> labels;
  for (int i = 0; i < 20000; ++i) {
    const double p = rng.Uniform();
    probs.push_back(p);
    labels.push_back(rng.Bernoulli(p) ? 1 : 0);
  }
  EXPECT_LT(ExpectedCalibrationError(probs, labels), 0.03);
}

TEST(EceTest, ConstantOverconfidentIsLarge) {
  // Predicts 0.99 for everything on a 50/50 dataset.
  std::vector<double> probs(1000, 0.99);
  std::vector<int> labels(1000, 0);
  for (int i = 0; i < 500; ++i) labels[i] = 1;
  EXPECT_NEAR(ExpectedCalibrationError(probs, labels), 0.49, 0.01);
}

TEST(EceTest, ReliabilityDiagramMassSumsToOne) {
  Rng rng(19);
  std::vector<double> probs;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    probs.push_back(rng.Uniform());
    labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
  }
  auto bins = ReliabilityDiagram(probs, labels, 10);
  double mass = 0.0;
  for (const auto& b : bins) mass += b.fraction;
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(AdaptiveCalibratorTest, FitsAllSixAndNormalizesWeights) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(1500, 23, &scores, &labels);
  AdaptiveCalibrator ada;
  ASSERT_TRUE(ada.Fit(scores, labels).ok());
  ASSERT_EQ(ada.methods().size(), 6u);
  double weight_sum = 0.0;
  for (const auto& m : ada.methods()) weight_sum += m.weight;
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

TEST(AdaptiveCalibratorTest, ImprovesEce) {
  std::vector<double> scores, test_scores;
  std::vector<int> labels, test_labels;
  MakeOverconfident(2000, 29, &scores, &labels);
  MakeOverconfident(2000, 31, &test_scores, &test_labels);
  AdaptiveCalibrator ada;
  ASSERT_TRUE(ada.Fit(scores, labels).ok());
  const double before = ExpectedCalibrationError(test_scores, test_labels);
  const double after = ExpectedCalibrationError(
      ada.CalibrateAll(test_scores), test_labels);
  EXPECT_LT(after, before);
}

TEST(AdaptiveCalibratorTest, FamilyToggles) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(800, 37, &scores, &labels);

  AdaptiveCalibratorConfig param_only;
  param_only.use_nonparametric = false;
  AdaptiveCalibrator ada_param(param_only);
  ASSERT_TRUE(ada_param.Fit(scores, labels).ok());
  EXPECT_EQ(ada_param.methods().size(), 3u);
  for (const auto& m : ada_param.methods()) EXPECT_TRUE(m.parametric);

  AdaptiveCalibratorConfig none;
  none.use_parametric = false;
  none.use_nonparametric = false;
  AdaptiveCalibrator ada_none(none);
  EXPECT_FALSE(ada_none.Fit(scores, labels).ok());
}

TEST(AdaptiveCalibratorTest, NonAdaptiveUniformWithinFamily) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(800, 41, &scores, &labels);
  AdaptiveCalibratorConfig config;
  config.adaptive_parametric = false;
  config.adaptive_nonparametric = false;
  AdaptiveCalibrator ada(config);
  ASSERT_TRUE(ada.Fit(scores, labels).ok());
  // Within each family all weights equal.
  double param_w = 1e300, nonparam_w = 1e300;
  for (const auto& m : ada.methods()) {
    double& ref = m.parametric ? param_w : nonparam_w;
    if (ref == 1e300) {
      ref = m.weight;
    } else {
      EXPECT_NEAR(m.weight, ref, 1e-12);
    }
  }
}

TEST(AdaptiveCalibratorTest, RejectsNonFiniteScoresBeforeTheBaselineEce) {
  for (double bad : kNonFinite) {
    std::vector<double> scores;
    std::vector<int> labels;
    MakeScoresWith(bad, &scores, &labels);
    AdaptiveCalibrator ada;
    EXPECT_EQ(ada.Fit(scores, labels).code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(EceDeathTest, NanProbabilityAbortsInsteadOfIndexingOutsideTheBins) {
  EXPECT_DEATH(ExpectedCalibrationError({0.2, std::nan(""), 0.9}, {0, 1, 1}),
               "not in \\[0, 1\\]");
}

TEST(AdaptiveCalibratorTest, OutputsInUnitInterval) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeOverconfident(600, 43, &scores, &labels);
  AdaptiveCalibrator ada;
  ASSERT_TRUE(ada.Fit(scores, labels).ok());
  for (double s = 0.0; s <= 1.0; s += 0.02) {
    const double p = ada.Calibrate(s);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace calib
}  // namespace dbg4eth
