// google-benchmark microbenchmarks of the substrates the reproduction is
// built on: dense matmul, GAT/GCN forward+backward, subgraph sampling,
// feature extraction, GBDT training, and calibration fitting. These are
// the performance-critical inner loops of every table/figure harness.
#include <benchmark/benchmark.h>

#include <memory>

#include "calib/adaptive.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/gsg_encoder.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "features/node_features.h"
#include "gnn/conv.h"
#include "graph/sampling.h"
#include "graph/build.h"
#include "ml/gbdt.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace dbg4eth {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Random(n, n, &rng);
  Matrix b = Matrix::Random(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulTransA(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Random(n, n, &rng);
  Matrix b = Matrix::Random(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulTransA)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulTransB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Random(n, n, &rng);
  Matrix b = Matrix::Random(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(32)->Arg(64)->Arg(128);

// SpMM at the sparsity level of a normalized top-K adjacency (~5% nnz)
// against the equivalent dense MatMul of BM_MatMul.
void BM_SpMM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  Matrix dense(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (rng.Bernoulli(0.05)) dense.At(r, c) = rng.Uniform();
    }
  }
  const SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Matrix x = Matrix::Random(n, 32, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpMM(sparse, x));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * sparse.nnz() * 32);
}
BENCHMARK(BM_SpMM)->Arg(64)->Arg(128)->Arg(256);

void BM_GatForwardBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  gnn::GatConv conv(16, 16, 2, &rng);
  const auto support = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromDense(Matrix::Ones(n, n)));
  Matrix x = Matrix::Random(n, 16, &rng);
  for (auto _ : state) {
    ag::Tensor input = ag::Tensor::Constant(x);
    ag::Tensor loss = ag::SumAll(conv.Forward(input, support));
    loss.Backward();
    benchmark::DoNotOptimize(loss.ScalarValue());
  }
}
BENCHMARK(BM_GatForwardBackward)->Arg(50)->Arg(100);

void BM_GcnForwardBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  gnn::GcnConv conv(16, 16, &rng);
  Matrix adj = Matrix::Random(n, n, &rng, 0.0, 1.0);
  Matrix x = Matrix::Random(n, 16, &rng);
  for (auto _ : state) {
    ag::Tensor loss = ag::SumAll(
        conv.Forward(ag::Tensor::Constant(adj), ag::Tensor::Constant(x)));
    loss.Backward();
    benchmark::DoNotOptimize(loss.ScalarValue());
  }
}
BENCHMARK(BM_GcnForwardBackward)->Arg(50)->Arg(100);

class LedgerFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (ledger) return;
    eth::LedgerConfig config;
    config.num_normal = 1500;
    config.duration_days = 120.0;
    ledger = std::make_unique<eth::LedgerSimulator>(config);
    DBG4ETH_CHECK(ledger->Generate().ok());
    centers = ledger->AccountsOfClass(eth::AccountClass::kExchange);
  }
  static std::unique_ptr<eth::LedgerSimulator> ledger;
  static std::vector<eth::AccountId> centers;
};
std::unique_ptr<eth::LedgerSimulator> LedgerFixture::ledger;
std::vector<eth::AccountId> LedgerFixture::centers;

BENCHMARK_F(LedgerFixture, SubgraphSampling)(benchmark::State& state) {
  graph::SamplingConfig config;
  size_t i = 0;
  for (auto _ : state) {
    auto sub = graph::SampleSubgraph(*ledger, centers[i % centers.size()],
                                     config);
    benchmark::DoNotOptimize(sub.ok());
    ++i;
  }
}

BENCHMARK_F(LedgerFixture, FeatureExtraction)(benchmark::State& state) {
  graph::SamplingConfig config;
  auto sub = graph::SampleSubgraph(*ledger, centers[0], config).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::ComputeNodeFeatures(sub));
  }
}

// Cold vs. cached operator access: the cold path builds the CSR
// D^-1/2 (A+I) D^-1/2 from the edge list every call (via a fresh Graph
// copy), the cached path hits the per-Graph operator cache.
BENCHMARK_F(LedgerFixture, NormalizedAdjacencyCold)(benchmark::State& state) {
  graph::SamplingConfig config;
  auto sub = graph::SampleSubgraph(*ledger, centers[0], config).ValueOrDie();
  const graph::Graph gsg = graph::BuildGlobalStaticGraph(sub);
  for (auto _ : state) {
    graph::Graph copy = gsg;  // Copy starts with a cold cache.
    benchmark::DoNotOptimize(copy.NormalizedAdjacencySparse()->nnz());
  }
}

BENCHMARK_F(LedgerFixture, NormalizedAdjacencyCached)(benchmark::State& state) {
  graph::SamplingConfig config;
  auto sub = graph::SampleSubgraph(*ledger, centers[0], config).ValueOrDie();
  const graph::Graph gsg = graph::BuildGlobalStaticGraph(sub);
  benchmark::DoNotOptimize(gsg.NormalizedAdjacencySparse()->nnz());  // Warm.
  for (auto _ : state) {
    benchmark::DoNotOptimize(gsg.NormalizedAdjacencySparse()->nnz());
  }
}

void BM_GbdtTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Matrix x(n, 4);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 4; ++c) x.At(i, c) = rng.Normal(0, 1);
    y[i] = x.At(i, 0) + x.At(i, 1) * x.At(i, 2) > 0 ? 1 : 0;
  }
  for (auto _ : state) {
    ml::GbdtClassifier model;
    benchmark::DoNotOptimize(model.Train(x, y).ok());
  }
}
BENCHMARK(BM_GbdtTrain)->Arg(200)->Arg(1000);

void BM_AdaptiveCalibrationFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(scores[i]) ? 1 : 0;
  }
  for (auto _ : state) {
    calib::AdaptiveCalibrator ada;
    benchmark::DoNotOptimize(ada.Fit(scores, labels).ok());
  }
}
BENCHMARK(BM_AdaptiveCalibrationFit)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace dbg4eth

BENCHMARK_MAIN();
