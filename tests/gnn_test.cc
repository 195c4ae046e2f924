#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/optimizer.h"
#include "gnn/conv.h"
#include "gnn/diffpool.h"
#include "gnn/gru.h"
#include "gnn/hier_attention.h"
#include "gnn/linear.h"
#include "gnn/transformer.h"
#include "graph/graph.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace gnn {
namespace {

graph::Graph TestGraph() {
  // 5 nodes: hub 0 plus a tail.
  graph::Graph g;
  g.num_nodes = 5;
  g.edges = {{0, 1}, {0, 2}, {0, 3}, {3, 4}};
  return g;
}

ag::Tensor RandomInput(int n, int d, Rng* rng) {
  return ag::Tensor::Constant(Matrix::Random(n, d, rng, -1.0, 1.0));
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  ag::Tensor x = RandomInput(5, 4, &rng);
  ag::Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(lin.Parameters().size(), 2u);
  EXPECT_EQ(lin.NumParameters(), 4 * 3 + 3);

  Linear no_bias(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearTest, GradCheck) {
  Rng rng(2);
  Linear lin(3, 2, &rng);
  ag::Tensor x = RandomInput(4, 3, &rng);
  auto loss = [&] { return ag::SumAll(ag::Tanh(lin.Forward(x))); };
  auto res = ag::CheckGradients(loss, lin.Parameters());
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GcnConvTest, PropagatesAndGradChecks) {
  Rng rng(3);
  graph::Graph g = TestGraph();
  GcnConv conv(3, 2, &rng);
  ag::Tensor adj =
      ag::Tensor::Constant(g.NormalizedAdjacencySparse()->ToDense());
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor y = conv.Forward(adj, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
  auto loss = [&] { return ag::SumAll(ag::Tanh(conv.Forward(adj, x))); };
  auto res = ag::CheckGradients(loss, conv.Parameters());
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GcnConvTest, IsolatedGraphReducesToSelfTransform) {
  // With identity adjacency, GCN is exactly a linear layer.
  Rng rng(4);
  GcnConv conv(3, 3, &rng);
  ag::Tensor adj = ag::Tensor::Constant(Matrix::Identity(4));
  ag::Tensor x = RandomInput(4, 3, &rng);
  ag::Tensor y = conv.Forward(adj, x);
  // Permuting rows of x permutes rows of y identically.
  Matrix xp = x.value().GatherRows({3, 2, 1, 0});
  ag::Tensor yp = conv.Forward(adj, ag::Tensor::Constant(xp));
  EXPECT_TRUE(AlmostEqual(yp.value(), y.value().GatherRows({3, 2, 1, 0})));
}

TEST(GatConvTest, HeadsConcatAndAttentionNormalized) {
  Rng rng(5);
  graph::Graph g = TestGraph();
  GatConv conv(3, 4, /*num_heads=*/2, &rng);
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor y = conv.Forward(x, g.AttentionMaskSparse());
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);  // 2 heads x 4
  EXPECT_EQ(conv.Parameters().size(), 6u);
}

TEST(GatConvTest, GradCheck) {
  Rng rng(6);
  graph::Graph g = TestGraph();
  GatConv conv(3, 2, 2, &rng);
  ag::Tensor x = RandomInput(5, 3, &rng);
  const auto support = g.AttentionMaskSparse();
  auto loss = [&] { return ag::SumAll(ag::Tanh(conv.Forward(x, support))); };
  auto res = ag::CheckGradients(loss, conv.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

void ExpectBitEqual(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < want.rows(); ++r) {
    for (int c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.At(r, c)),
                std::bit_cast<uint64_t>(want.At(r, c)))
          << "(" << r << ", " << c << "): " << got.At(r, c) << " vs "
          << want.At(r, c);
    }
  }
}

// Test-local copy of the dense-mask masked softmax that the CSR-support op
// replaced: forward and backward scan every entry of the N x M mask.
ag::Tensor DenseMaskSoftmaxReference(const ag::Tensor& a, const Matrix& mask) {
  Matrix out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    double max_v = -1e300;
    bool any = false;
    for (int c = 0; c < a.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        any = true;
        max_v = std::max(max_v, a.value().At(r, c));
      }
    }
    if (!any) continue;
    double denom = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      if (mask.At(r, c) != 0.0) denom += std::exp(a.value().At(r, c) - max_v);
    }
    for (int c = 0; c < a.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        out.At(r, c) = std::exp(a.value().At(r, c) - max_v) / denom;
      }
    }
  }
  auto node = std::make_shared<ag::internal::TensorNode>();
  node->value = std::move(out);
  node->op_name = "dense_mask_softmax_reference";
  node->parents = {a.node()};
  node->requires_grad = a.requires_grad();
  node->backward_fn = [](ag::internal::TensorNode* n) {
    if (!n->parents[0]->requires_grad) return;
    Matrix& g = ag::internal::GradAccumTarget(n->parents[0].get());
    const Matrix& y = n->value;
    for (int r = 0; r < y.rows(); ++r) {
      double dot = 0.0;
      for (int c = 0; c < y.cols(); ++c) dot += n->grad.At(r, c) * y.At(r, c);
      for (int c = 0; c < y.cols(); ++c) {
        g.At(r, c) += y.At(r, c) * (n->grad.At(r, c) - dot);
      }
    }
  };
  return ag::Tensor::FromNode(std::move(node));
}

// GatConv's heads as the GSG encoder ran them with the dense mask:
// `params` is GatConv::Parameters() (W, a_src, a_dst per head).
ag::Tensor DenseMaskGatReference(const std::vector<ag::Tensor>& params,
                                 const ag::Tensor& x, const Matrix& mask,
                                 std::shared_ptr<const SparseMatrix> support) {
  ag::Tensor out;
  for (size_t h = 0; 3 * h < params.size(); ++h) {
    ag::Tensor hw = ag::MatMul(x, params[3 * h]);
    ag::Tensor u = ag::MatMul(hw, params[3 * h + 1]);
    ag::Tensor v = ag::MatMul(hw, params[3 * h + 2]);
    ag::Tensor scores = ag::LeakyRelu(ag::PairwiseSum(u, v), 0.2);
    ag::Tensor alpha = DenseMaskSoftmaxReference(scores, mask);
    ag::Tensor head = ag::MaskedSpMatMul(support, alpha, hw);
    out = h == 0 ? head : ag::ConcatCols(out, head);
  }
  return out;
}

TEST(OpsTest, MaskedSoftmaxMatchesTheDenseMaskReference) {
  Rng rng(41);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 1 + rng.UniformInt(9);
    const int m = 1 + rng.UniformInt(9);
    Matrix mask(n, m);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < m; ++c) mask.At(r, c) = rng.Bernoulli(0.4) ? 1 : 0;
    }
    const int empty_row = rng.UniformInt(n);
    for (int c = 0; c < m; ++c) mask.At(empty_row, c) = 0.0;
    auto support =
        std::make_shared<const SparseMatrix>(SparseMatrix::FromDense(mask));
    const Matrix scores = Matrix::Random(n, m, &rng, -4.0, 4.0);
    const ag::Tensor w =
        ag::Tensor::Constant(Matrix::Random(n, m, &rng, -1.0, 1.0));

    ag::Tensor a = ag::Tensor::Parameter(scores);
    ag::Tensor y = ag::MaskedSoftmaxRows(a, support);
    ag::SumAll(ag::Mul(y, w)).Backward();
    ag::Tensor a_ref = ag::Tensor::Parameter(scores);
    ag::Tensor y_ref = DenseMaskSoftmaxReference(a_ref, mask);
    ag::SumAll(ag::Mul(y_ref, w)).Backward();

    ExpectBitEqual(y.value(), y_ref.value());
    ExpectBitEqual(a.grad(), a_ref.grad());
  }
}

TEST(GatConvTest, GradientsMatchTheDenseMaskReference) {
  Rng rng(42);
  graph::Graph g;
  g.num_nodes = 9;  // Node 8 stays isolated.
  for (int m = 0; m < 14; ++m) {
    g.edges.push_back({rng.UniformInt(8), rng.UniformInt(8)});
  }
  const auto support = g.AttentionMaskSparse();
  const Matrix mask = g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/true);
  Rng init(43);
  Rng init_ref(43);
  GatConv conv(3, 4, /*num_heads=*/2, &init);
  GatConv reference(3, 4, /*num_heads=*/2, &init_ref);
  const Matrix x0 = Matrix::Random(g.num_nodes, 3, &rng, -1.0, 1.0);

  ag::Tensor x = ag::Tensor::Parameter(x0);
  ag::Tensor y = conv.Forward(x, support);
  ag::SumAll(ag::Tanh(y)).Backward();
  ag::Tensor x_ref = ag::Tensor::Parameter(x0);
  ag::Tensor y_ref =
      DenseMaskGatReference(reference.Parameters(), x_ref, mask, support);
  ag::SumAll(ag::Tanh(y_ref)).Backward();

  ExpectBitEqual(y.value(), y_ref.value());
  ExpectBitEqual(x.grad(), x_ref.grad());
  const auto params = conv.Parameters();
  const auto params_ref = reference.Parameters();
  ASSERT_EQ(params.size(), 6u);
  for (size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectBitEqual(params[i].grad(), params_ref[i].grad());
  }
}

TEST(GinConvTest, GradCheckAndShapes) {
  Rng rng(7);
  graph::Graph g = TestGraph();
  GinConv conv(3, 6, 2, &rng);
  ag::Tensor adj = ag::Tensor::Constant(
      g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/false));
  ag::Tensor x = RandomInput(5, 3, &rng);
  EXPECT_EQ(conv.Forward(adj, x).cols(), 2);
  auto loss = [&] { return ag::SumAll(ag::Tanh(conv.Forward(adj, x))); };
  auto res = ag::CheckGradients(loss, conv.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(SageConvTest, GradCheck) {
  Rng rng(8);
  graph::Graph g = TestGraph();
  // Mean-neighbor matrix: row-normalized adjacency without self loops.
  Matrix adj = g.DenseAdjacency(true, false);
  for (int i = 0; i < adj.rows(); ++i) {
    double s = 0;
    for (int j = 0; j < adj.cols(); ++j) s += adj.At(i, j);
    if (s > 0) {
      for (int j = 0; j < adj.cols(); ++j) adj.At(i, j) /= s;
    }
  }
  SageConv conv(3, 2, &rng);
  ag::Tensor mean_adj = ag::Tensor::Constant(adj);
  ag::Tensor x = RandomInput(5, 3, &rng);
  auto loss = [&] {
    return ag::SumAll(ag::Tanh(conv.Forward(mean_adj, x)));
  };
  auto res = ag::CheckGradients(loss, conv.Parameters());
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(AppnpTest, PropagationMixesPredictions) {
  Rng rng(9);
  graph::Graph g = TestGraph();
  Appnp model(3, 8, 2, /*k_steps=*/4, /*alpha=*/0.2, &rng);
  auto adj = g.NormalizedAdjacencySparse();
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor y = model.Forward(adj, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
  auto loss = [&] { return ag::SumAll(ag::Tanh(model.Forward(adj, x))); };
  auto res = ag::CheckGradients(loss, model.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GruCellTest, OutputBoundedAndGradChecks) {
  Rng rng(10);
  GruCell cell(4, &rng);
  ag::Tensor u = RandomInput(3, 4, &rng);
  ag::Tensor h = RandomInput(3, 4, &rng);
  ag::Tensor out = cell.Forward(u, h);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
  EXPECT_EQ(cell.Parameters().size(), 9u);
  auto loss = [&] { return ag::SumAll(cell.Forward(u, h)); };
  auto res = ag::CheckGradients(loss, cell.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(GruCellTest, UpdateGateInterpolates) {
  // h_t must lie between h_prev and the candidate (element-wise convex
  // combination); with h_prev == candidate range bound [-1, 1] from tanh,
  // |h_t| <= max(|h_prev|, 1).
  Rng rng(11);
  GruCell cell(3, &rng);
  ag::Tensor u = RandomInput(4, 3, &rng);
  ag::Tensor h = ag::Tensor::Constant(Matrix(4, 3, 0.5));
  Matrix out = cell.Forward(u, h).value();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_LE(std::fabs(out.At(r, c)), 1.0);
    }
  }
}

TEST(DiffPoolTest, ShapesAndGradCheck) {
  Rng rng(12);
  graph::Graph g = TestGraph();
  DiffPool pool(3, /*num_clusters=*/2, &rng);
  ag::Tensor adj =
      ag::Tensor::Constant(g.NormalizedAdjacencySparse()->ToDense());
  ag::Tensor x = RandomInput(5, 3, &rng);
  auto out = pool.Forward(adj, x);
  EXPECT_EQ(out.features.rows(), 2);
  EXPECT_EQ(out.features.cols(), 3);
  EXPECT_EQ(out.adjacency.rows(), 2);
  EXPECT_EQ(out.adjacency.cols(), 2);
  auto loss = [&] {
    auto o = pool.Forward(adj, x);
    return ag::Add(ag::SumAll(ag::Tanh(o.features)),
                   ag::SumAll(ag::Tanh(o.adjacency)));
  };
  auto res = ag::CheckGradients(loss, pool.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(DiffPoolTest, StackedPoolingToSingleCluster) {
  Rng rng(13);
  graph::Graph g = TestGraph();
  DiffPool pool1(3, 2, &rng);
  DiffPool pool2(3, 1, &rng);
  ag::Tensor adj =
      ag::Tensor::Constant(g.NormalizedAdjacencySparse()->ToDense());
  ag::Tensor x = RandomInput(5, 3, &rng);
  auto level1 = pool1.Forward(adj, x);
  auto level2 = pool2.Forward(level1.adjacency, level1.features);
  EXPECT_EQ(level2.features.rows(), 1);
  EXPECT_EQ(level2.features.cols(), 3);
}

TEST(GraphAttentionReadoutTest, ProducesGraphEmbedding) {
  Rng rng(14);
  GraphAttentionReadout readout(4, &rng);
  ag::Tensor h = RandomInput(6, 4, &rng);
  ag::Tensor graph_emb = readout.Forward(h);
  EXPECT_EQ(graph_emb.rows(), 1);
  EXPECT_EQ(graph_emb.cols(), 4);
}

TEST(GraphAttentionReadoutTest, GradCheck) {
  Rng rng(15);
  GraphAttentionReadout readout(3, &rng);
  ag::Tensor h = RandomInput(4, 3, &rng);
  auto loss = [&] { return ag::SumAll(readout.Forward(h)); };
  auto res = ag::CheckGradients(loss, readout.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(TransformerTest, SequenceEncoderShapes) {
  Rng rng(16);
  SequenceEncoder encoder(5, 8, /*num_blocks=*/2, /*num_heads=*/2,
                          /*num_classes=*/2, &rng);
  ag::Tensor seq = RandomInput(7, 5, &rng);
  ag::Tensor logits = encoder.Forward(seq);
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 2);
  EXPECT_GT(encoder.NumParameters(), 0);
}

TEST(TransformerTest, SequenceEncoderGradCheck) {
  Rng rng(17);
  SequenceEncoder encoder(3, 4, 1, 1, 2, &rng);
  ag::Tensor seq = RandomInput(5, 3, &rng);
  std::vector<int> label = {1};
  auto loss = [&] {
    return ag::SoftmaxCrossEntropy(encoder.Forward(seq), label);
  };
  auto res = ag::CheckGradients(loss, encoder.Parameters(), 1e-5, 1e-3);
  EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(TransformerTest, GraphTransformerUsesStructure) {
  Rng rng(18);
  graph::Graph g = TestGraph();
  GraphTransformer model(3, 8, 1, 2, 2, &rng);
  Matrix adj = g.DenseAdjacency(true, false);
  ag::Tensor x = RandomInput(5, 3, &rng);
  ag::Tensor logits = model.Forward(x, adj);
  EXPECT_EQ(logits.cols(), 2);
  // Different topology with the same features changes the output.
  Matrix empty_adj(5, 5);
  ag::Tensor logits2 = model.Forward(x, empty_adj);
  EXPECT_FALSE(AlmostEqual(logits.value(), logits2.value(), 1e-9));
}

TEST(TransformerTest, StructuralBiasEncodesDegreeAndConnectivity) {
  graph::Graph g = TestGraph();
  Matrix bias = GraphTransformer::StructuralBias(g.DenseAdjacency(true, false));
  // Hub 0 (degree 3) has larger diagonal than leaf 4 (degree 1).
  EXPECT_GT(bias.At(0, 0), bias.At(4, 4));
  EXPECT_DOUBLE_EQ(bias.At(0, 1), 1.0);   // connected
  EXPECT_DOUBLE_EQ(bias.At(1, 2), -1.0);  // not connected
}

TEST(ModuleTest, JoinParameters) {
  Rng rng(19);
  Linear a(2, 2, &rng);
  Linear b(2, 2, &rng, /*bias=*/false);
  auto params = JoinParameters({&a, &b});
  EXPECT_EQ(params.size(), 3u);
}

// End-to-end sanity: a 2-layer GCN + pooling head can overfit a tiny
// synthetic graph classification task.
TEST(GnnIntegrationTest, OverfitsTinyTask) {
  Rng rng(20);
  // Two classes: dense graphs vs sparse graphs, constant features.
  std::vector<graph::Graph> graphs;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    graph::Graph g;
    g.num_nodes = 6;
    const bool dense = i % 2 == 0;
    for (int a = 0; a < 6; ++a) {
      for (int b = a + 1; b < 6; ++b) {
        if (dense || (b == a + 1 && a % 2 == 0)) g.edges.push_back({a, b});
      }
    }
    // Feature: constant channel plus normalized degree.
    g.node_features = Matrix::Ones(6, 3);
    const auto deg = g.UndirectedDegrees();
    for (int v = 0; v < 6; ++v) {
      g.node_features.At(v, 1) = deg[v] / 5.0;
      g.node_features.At(v, 2) = 0.1 * i;  // instance jitter
    }
    graphs.push_back(g);
    labels.push_back(dense ? 1 : 0);
  }
  GcnConv conv1(3, 8, &rng);
  GcnConv conv2(8, 8, &rng);
  Linear head(8, 2, &rng);
  auto params = JoinParameters({&conv1, &conv2, &head});
  ag::Adam opt(params, 0.05);
  auto forward = [&](const graph::Graph& g) {
    ag::Tensor adj =
      ag::Tensor::Constant(g.NormalizedAdjacencySparse()->ToDense());
    ag::Tensor x = ag::Tensor::Constant(g.node_features);
    ag::Tensor h = ag::Relu(conv1.Forward(adj, x));
    h = ag::Relu(conv2.Forward(adj, h));
    return head.Forward(ag::MeanPoolRows(h));
  };
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      opt.ZeroGrad();
      ag::Tensor loss = ag::SoftmaxCrossEntropy(forward(graphs[i]),
                                                {labels[i]});
      loss.Backward();
      opt.Step();
    }
  }
  int correct = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Matrix logits = forward(graphs[i]).value();
    const int pred = logits.At(0, 1) > logits.At(0, 0) ? 1 : 0;
    correct += pred == labels[i];
  }
  EXPECT_EQ(correct, 10);
}

}  // namespace
}  // namespace gnn
}  // namespace dbg4eth
