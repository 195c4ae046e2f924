// Property-based tests: invariants checked over swept random inputs using
// parameterized gtest suites.
#include <gtest/gtest.h>

#include <cmath>

#include "calib/ece.h"
#include "calib/nonparametric.h"
#include "calib/parametric.h"
#include "common/rng.h"
#include "eth/ledger.h"
#include "features/node_features.h"
#include "graph/centrality.h"
#include "graph/graph.h"
#include "graph/sampling.h"
#include "ml/metrics.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace {

// ---------- Matrix algebra identities over random shapes ----------

class MatrixAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixAlgebraTest, TransposeOfProduct) {
  Rng rng(GetParam());
  const int n = 2 + rng.UniformInt(6);
  const int k = 2 + rng.UniformInt(6);
  const int m = 2 + rng.UniformInt(6);
  Matrix a = Matrix::Random(n, k, &rng);
  Matrix b = Matrix::Random(k, m, &rng);
  EXPECT_TRUE(AlmostEqual(MatMul(a, b).Transposed(),
                          MatMul(b.Transposed(), a.Transposed()), 1e-9));
}

TEST_P(MatrixAlgebraTest, Distributivity) {
  Rng rng(GetParam() + 100);
  const int n = 2 + rng.UniformInt(5);
  const int m = 2 + rng.UniformInt(5);
  Matrix a = Matrix::Random(n, m, &rng);
  Matrix b = Matrix::Random(n, m, &rng);
  Matrix c = Matrix::Random(m, 4, &rng);
  EXPECT_TRUE(AlmostEqual(MatMul(Add(a, b), c),
                          Add(MatMul(a, c), MatMul(b, c)), 1e-9));
}

TEST_P(MatrixAlgebraTest, MatMulAssociativity) {
  Rng rng(GetParam() + 200);
  Matrix a = Matrix::Random(3, 4, &rng);
  Matrix b = Matrix::Random(4, 5, &rng);
  Matrix c = Matrix::Random(5, 2, &rng);
  EXPECT_TRUE(AlmostEqual(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)),
                          1e-9));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatrixAlgebraTest,
                         ::testing::Range(0, 8));

// ---------- Autograd: random op chains pass gradient checking ----------

class AutogradChainTest : public ::testing::TestWithParam<int> {};

TEST_P(AutogradChainTest, RandomChainGradChecks) {
  Rng rng(GetParam() * 31 + 7);
  const int n = 2 + rng.UniformInt(4);
  const int m = 2 + rng.UniformInt(4);
  ag::Tensor x = ag::Tensor::Parameter(Matrix::Random(n, m, &rng));
  ag::Tensor w = ag::Tensor::Parameter(Matrix::Random(m, m, &rng));
  auto loss = [&] {
    ag::Tensor h = ag::MatMul(x, w);
    // Random activation chain, chosen deterministically by the seed.
    switch (GetParam() % 4) {
      case 0:
        h = ag::Tanh(ag::LeakyRelu(h, 0.1));
        break;
      case 1:
        h = ag::Sigmoid(ag::Elu(h));
        break;
      case 2:
        h = ag::SoftmaxRows(h);
        break;
      default:
        h = ag::Mul(h, ag::Sigmoid(h));
        break;
    }
    return ag::MeanAll(ag::Mul(h, h));
  };
  auto res = ag::CheckGradients(loss, {x, w}, 1e-5, 2e-3);
  EXPECT_TRUE(res.passed) << "seed " << GetParam() << " rel err "
                          << res.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(RandomChains, AutogradChainTest,
                         ::testing::Range(0, 12));

TEST_P(AutogradChainTest, SoftmaxRowsSumToOne) {
  Rng rng(GetParam());
  Matrix logits = Matrix::Random(5, 7, &rng, -10.0, 10.0);
  Matrix probs = ag::SoftmaxRowsValue(logits);
  for (int r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < probs.cols(); ++c) {
      sum += probs.At(r, c);
      EXPECT_GE(probs.At(r, c), 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

// ---------- Graph invariants over random topologies ----------

graph::Graph RandomGraph(Rng* rng, int n, double density) {
  graph::Graph g;
  g.num_nodes = n;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && rng->Bernoulli(density)) g.edges.push_back({a, b});
    }
  }
  if (!g.edges.empty()) {
    g.edge_features = Matrix(static_cast<int>(g.edges.size()), 2);
    for (int m = 0; m < g.num_edges(); ++m) {
      g.edge_features.At(m, 0) = rng->LogNormal(0, 1);
      g.edge_features.At(m, 1) = 1 + rng->UniformInt(5);
    }
  }
  return g;
}

class GraphInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphInvariantTest, NormalizedAdjacencySymmetricBounded) {
  Rng rng(GetParam() * 13 + 1);
  graph::Graph g = RandomGraph(&rng, 4 + rng.UniformInt(12), 0.3);
  Matrix norm = g.NormalizedAdjacencySparse()->ToDense();
  for (int i = 0; i < g.num_nodes; ++i) {
    for (int j = 0; j < g.num_nodes; ++j) {
      EXPECT_NEAR(norm.At(i, j), norm.At(j, i), 1e-12);
      EXPECT_GE(norm.At(i, j), 0.0);
      EXPECT_LE(norm.At(i, j), 1.0 + 1e-12);
    }
  }
}

TEST_P(GraphInvariantTest, WeightedAdjacencyRowStochastic) {
  Rng rng(GetParam() * 17 + 3);
  graph::Graph g = RandomGraph(&rng, 4 + rng.UniformInt(12), 0.25);
  Matrix w = g.WeightedAdjacencySparse()->ToDense();
  for (int i = 0; i < g.num_nodes; ++i) {
    double sum = 0.0;
    for (int j = 0; j < g.num_nodes; ++j) {
      EXPECT_GE(w.At(i, j), 0.0);
      sum += w.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(GraphInvariantTest, PageRankIsDistribution) {
  Rng rng(GetParam() * 19 + 5);
  graph::Graph g = RandomGraph(&rng, 4 + rng.UniformInt(12), 0.3);
  auto pr = graph::PageRankCentrality(g);
  double sum = 0.0;
  for (double v : pr) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_P(GraphInvariantTest, DegreeCentralityMatchesDegrees) {
  Rng rng(GetParam() * 23 + 9);
  graph::Graph g = RandomGraph(&rng, 4 + rng.UniformInt(10), 0.3);
  auto c = graph::DegreeCentrality(g);
  auto deg = g.UndirectedDegrees();
  for (int v = 0; v < g.num_nodes; ++v) {
    EXPECT_NEAR(c[v] * (g.num_nodes - 1), deg[v], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, GraphInvariantTest,
                         ::testing::Range(0, 10));

// ---------- Sampling invariants over random ledgers ----------

class SamplingPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static eth::LedgerSimulator* NewLedger(uint64_t seed) {
    eth::LedgerConfig config;
    config.num_normal = 300;
    config.num_exchange = 4;
    config.num_ico_wallet = 3;
    config.num_mining = 3;
    config.num_phish_hack = 4;
    config.num_bridge = 3;
    config.num_defi = 3;
    config.duration_days = 60.0;
    config.seed = seed;
    auto* ledger = new eth::LedgerSimulator(config);
    EXPECT_TRUE(ledger->Generate().ok());
    return ledger;
  }
};

TEST_P(SamplingPropertyTest, SubgraphStructuralInvariants) {
  std::unique_ptr<eth::LedgerSimulator> ledger(NewLedger(GetParam() + 500));
  Rng rng(GetParam());
  graph::SamplingConfig config;
  config.top_k = 2 + rng.UniformInt(6);
  config.hops = 1 + rng.UniformInt(2);

  for (eth::AccountId center :
       ledger->AccountsOfClass(eth::AccountClass::kExchange)) {
    auto result = graph::SampleSubgraph(*ledger, center, config);
    ASSERT_TRUE(result.ok());
    const eth::TxSubgraph& sub = result.ValueOrDie();
    // Growth bound: 1 + K + K^2 + ... for the configured hops.
    int bound = 1;
    int level = 1;
    for (int h = 0; h < config.hops; ++h) {
      level *= config.top_k;
      bound += level;
    }
    EXPECT_LE(sub.num_nodes(), std::min(bound, config.max_nodes));
    EXPECT_EQ(sub.nodes[sub.center_index], center);
    // All transactions are within the node set and time-ordered.
    for (size_t i = 0; i < sub.txs.size(); ++i) {
      EXPECT_GE(sub.txs[i].src, 0);
      EXPECT_LT(sub.txs[i].src, sub.num_nodes());
      EXPECT_GE(sub.txs[i].dst, 0);
      EXPECT_LT(sub.txs[i].dst, sub.num_nodes());
      if (i > 0) {
        EXPECT_LE(sub.txs[i - 1].timestamp, sub.txs[i].timestamp);
      }
    }
  }
}

TEST_P(SamplingPropertyTest, FeatureAccountingIdentities) {
  std::unique_ptr<eth::LedgerSimulator> ledger(NewLedger(GetParam() + 900));
  graph::SamplingConfig config;
  const auto centers = ledger->AccountsOfClass(eth::AccountClass::kMining);
  for (eth::AccountId center : centers) {
    auto sub = graph::SampleSubgraph(*ledger, center, config).ValueOrDie();
    Matrix f = features::ComputeNodeFeatures(sub);
    // Sum of NTS over nodes == number of transactions == sum of NTR.
    double nts = 0, ntr = 0, stv = 0, rtv = 0;
    for (int v = 0; v < sub.num_nodes(); ++v) {
      nts += f.At(v, features::kNts);
      ntr += f.At(v, features::kNtr);
      stv += f.At(v, features::kStv);
      rtv += f.At(v, features::kRtv);
      // Interval ordering and non-negativity.
      EXPECT_LE(f.At(v, features::kMinSti), f.At(v, features::kMaxSti));
      EXPECT_LE(f.At(v, features::kMinRti), f.At(v, features::kMaxRti));
      for (int c = 0; c < features::kFeatureDim; ++c) {
        EXPECT_GE(f.At(v, c), 0.0);
      }
    }
    EXPECT_DOUBLE_EQ(nts, static_cast<double>(sub.txs.size()));
    EXPECT_DOUBLE_EQ(ntr, static_cast<double>(sub.txs.size()));
    // Total value sent == total value received.
    EXPECT_NEAR(stv, rtv, 1e-9 * std::max(1.0, stv));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLedgers, SamplingPropertyTest,
                         ::testing::Range(0, 5));

// ---------- Calibration / metric properties ----------

class CalibrationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CalibrationPropertyTest, EceBoundedAndAucMonotoneInvariant) {
  Rng rng(GetParam() * 41 + 11);
  const int n = 50 + rng.UniformInt(200);
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.3 + 0.4 * scores[i]) ? 1 : 0;
  }
  const double ece = calib::ExpectedCalibrationError(scores, labels);
  EXPECT_GE(ece, 0.0);
  EXPECT_LE(ece, 1.0);

  // AUC is invariant under strictly monotone transforms of the scores.
  std::vector<double> transformed(n);
  for (int i = 0; i < n; ++i) {
    transformed[i] = std::exp(3.0 * scores[i]) + 7.0;
  }
  EXPECT_NEAR(ml::RocAuc(labels, scores), ml::RocAuc(labels, transformed),
              1e-12);
}

TEST_P(CalibrationPropertyTest, IsotonicAlwaysMonotone) {
  Rng rng(GetParam() * 43 + 13);
  const int n = 30 + rng.UniformInt(200);
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;  // pure noise
  }
  calib::IsotonicRegression iso;
  ASSERT_TRUE(iso.Fit(scores, labels).ok());
  double prev = -1.0;
  for (double s = 0.0; s <= 1.0; s += 0.02) {
    const double p = iso.Calibrate(s);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST_P(CalibrationPropertyTest, TemperatureScalingPreservesRanking) {
  Rng rng(GetParam() * 47 + 17);
  const int n = 100;
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(scores[i]) ? 1 : 0;
  }
  calib::TemperatureScaling ts;
  ASSERT_TRUE(ts.Fit(scores, labels).ok());
  // Monotone map => identical AUC.
  EXPECT_NEAR(ml::RocAuc(labels, scores),
              ml::RocAuc(labels, ts.CalibrateAll(scores)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomData, CalibrationPropertyTest,
                         ::testing::Range(0, 8));

// ---------- Metric sanity over random predictions ----------

class MetricsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricsPropertyTest, MetricsInUnitInterval) {
  Rng rng(GetParam() * 53 + 19);
  const int n = 20 + rng.UniformInt(100);
  std::vector<int> y_true(n), y_pred(n);
  for (int i = 0; i < n; ++i) {
    y_true[i] = rng.Bernoulli(0.4) ? 1 : 0;
    y_pred[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  auto m = ml::ComputeBinaryMetrics(y_true, y_pred);
  for (double v : {m.precision, m.recall, m.f1, m.accuracy}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Confusion counts add up.
  auto cm = ml::ComputeConfusion(y_true, y_pred);
  EXPECT_EQ(cm.tp + cm.fp + cm.tn + cm.fn, n);
}

TEST_P(MetricsPropertyTest, AucComplementSymmetry) {
  Rng rng(GetParam() * 59 + 23);
  const int n = 30 + rng.UniformInt(80);
  std::vector<int> y(n);
  std::vector<double> s(n);
  bool has_both = false;
  for (int i = 0; i < n; ++i) {
    y[i] = i % 2;
    s[i] = rng.Uniform();
  }
  has_both = true;
  ASSERT_TRUE(has_both);
  // Negating scores flips the AUC around 0.5.
  std::vector<double> neg(n);
  for (int i = 0; i < n; ++i) neg[i] = -s[i];
  EXPECT_NEAR(ml::RocAuc(y, s) + ml::RocAuc(y, neg), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomPredictions, MetricsPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace dbg4eth
