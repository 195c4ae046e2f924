// Grad-free inference fast path: bit-exactness of the tape-free forward
// (every GNN layer and both branch encoders), arena buffer reuse, and the
// zero-allocation steady state.
#include <gtest/gtest.h>

#include <malloc.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "gnn/conv.h"
#include "gnn/diffpool.h"
#include "gnn/gru.h"
#include "gnn/hier_attention.h"
#include "gnn/linear.h"
#include "gnn/transformer.h"
#include "graph/graph.h"
#include "ml/mlp.h"
#include "tensor/inference.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace {

/// Bit-for-bit equality (EXPECT_DOUBLE_EQ allows 4 ULPs).
void ExpectSameBits(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Bit-for-bit equality of two scores.
void ExpectSameBits(double a, double b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << a << " vs " << b;
}

/// Runs `forward` on the tape and again under a fresh inference arena and
/// asserts the values are bit-identical.
void ExpectTapeFreeMatchesTape(const std::function<ag::Tensor()>& forward) {
  const Matrix tape = forward().value();
  Matrix fast;
  {
    ag::InferenceArena arena;
    ag::InferenceScope scope(&arena);
    EXPECT_TRUE(scope.bound());
    fast = forward().value();
  }
  ExpectSameBits(fast, tape);
}

graph::Graph MakeGraph(int num_nodes, int feature_dim, uint64_t seed) {
  graph::Graph g;
  g.num_nodes = num_nodes;
  for (int v = 1; v < num_nodes; ++v) {
    g.edges.push_back({v - 1, v});
    if (v + 2 < num_nodes) g.edges.push_back({v, v + 2});
  }
  Rng rng(seed);
  g.node_features = Matrix::Random(num_nodes, feature_dim, &rng);
  g.edge_features =
      Matrix::Random(static_cast<int>(g.edges.size()), 2, &rng, 0.1, 5.0);
  g.label = static_cast<int>(seed % 2);
  return g;
}

std::vector<graph::Graph> MakeSlices(int num_nodes, int feature_dim,
                                     int num_slices, uint64_t seed) {
  std::vector<graph::Graph> slices;
  for (int t = 0; t < num_slices; ++t) {
    graph::Graph slice = MakeGraph(num_nodes, feature_dim, seed + t);
    if (t % 3 == 2) {  // Some slices are empty (no transactions).
      slice.edges.clear();
      slice.edge_features = Matrix();
    }
    slices.push_back(std::move(slice));
  }
  return slices;
}

// --------------------------------------------------------------------------
// Per-layer bit-exactness: tape-free forward == tape forward.
// --------------------------------------------------------------------------

TEST(TapeFreeLayerTest, Linear) {
  Rng rng(1);
  gnn::Linear lin(6, 4, &rng);
  const Matrix x = Matrix::Random(5, 6, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape(
      [&] { return lin.Forward(ag::Tensor::Constant(x)); });
}

TEST(TapeFreeLayerTest, GcnConvDenseAndSparse) {
  Rng rng(2);
  graph::Graph g = MakeGraph(6, 3, 11);
  gnn::GcnConv conv(3, 4, &rng);
  const Matrix x = Matrix::Random(6, 3, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape([&] {
    return conv.Forward(
        ag::Tensor::Constant(g.NormalizedAdjacencySparse()->ToDense()),
        ag::Tensor::Constant(x));
  });
  ExpectTapeFreeMatchesTape([&] {
    return conv.Forward(g.WeightedAdjacencySparse(),
                        ag::Tensor::Constant(x));
  });
}

TEST(TapeFreeLayerTest, GatConvMaskedAndPacked) {
  Rng rng(3);
  graph::Graph g = MakeGraph(7, 3, 12);
  gnn::GatConv conv(3, 4, /*num_heads=*/2, &rng);
  const Matrix x = Matrix::Random(7, 3, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape([&] {
    return conv.Forward(ag::Tensor::Constant(x), g.AttentionMaskSparse());
  });
}

TEST(TapeFreeLayerTest, AppnpSparse) {
  Rng rng(4);
  graph::Graph g = MakeGraph(6, 3, 13);
  gnn::Appnp model(3, 8, 2, /*k_steps=*/3, /*alpha=*/0.2, &rng);
  const Matrix x = Matrix::Random(6, 3, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape([&] {
    return model.Forward(g.NormalizedAdjacencySparse(),
                         ag::Tensor::Constant(x));
  });
}

TEST(TapeFreeLayerTest, GruCell) {
  Rng rng(5);
  gnn::GruCell cell(4, &rng);
  const Matrix u = Matrix::Random(3, 4, &rng, -1.0, 1.0);
  const Matrix h = Matrix::Random(3, 4, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape([&] {
    return cell.Forward(ag::Tensor::Constant(u), ag::Tensor::Constant(h));
  });
}

TEST(TapeFreeLayerTest, DiffPoolPyramid) {
  Rng rng(6);
  graph::Graph g = MakeGraph(6, 3, 14);
  gnn::DiffPool pool1(3, 2, &rng);
  gnn::DiffPool pool2(3, 1, &rng);
  const Matrix x = Matrix::Random(6, 3, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape([&] {
    auto level1 = pool1.Forward(
        ag::Tensor::Constant(g.NormalizedAdjacencySparse()->ToDense()),
        ag::Tensor::Constant(x));
    auto level2 = pool2.Forward(level1.adjacency, level1.features);
    return level2.features;
  });
}

TEST(TapeFreeLayerTest, GraphAttentionReadout) {
  Rng rng(7);
  gnn::GraphAttentionReadout readout(5, &rng);
  const Matrix h = Matrix::Random(6, 5, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape(
      [&] { return readout.Forward(ag::Tensor::Constant(h)); });
}

TEST(TapeFreeLayerTest, SequenceEncoder) {
  Rng rng(8);
  gnn::SequenceEncoder encoder(4, 8, /*num_blocks=*/2, /*num_heads=*/2,
                               /*num_classes=*/2, &rng);
  const Matrix seq = Matrix::Random(6, 4, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape(
      [&] { return encoder.Forward(ag::Tensor::Constant(seq)); });
}

TEST(TapeFreeLayerTest, GraphTransformer) {
  Rng rng(9);
  graph::Graph g = MakeGraph(5, 3, 15);
  gnn::GraphTransformer model(3, 8, 1, 2, 2, &rng);
  const Matrix adj = g.DenseAdjacency(true, false);
  const Matrix x = Matrix::Random(5, 3, &rng, -1.0, 1.0);
  ExpectTapeFreeMatchesTape(
      [&] { return model.Forward(ag::Tensor::Constant(x), adj); });
}

// --------------------------------------------------------------------------
// Encoder-level bit-exactness: solo tape vs tape-free.
// --------------------------------------------------------------------------

core::GsgEncoderConfig SmallGsgConfig() {
  core::GsgEncoderConfig config;
  config.node_feature_dim = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_gat_layers = 2;
  config.seed = 31;
  return config;
}

core::LdgEncoderConfig SmallLdgConfig() {
  core::LdgEncoderConfig config;
  config.node_feature_dim = 6;
  config.hidden_dim = 8;
  config.num_time_slices = 3;
  config.first_level_clusters = 2;
  config.seed = 32;
  return config;
}

/// The score PredictScore computes, run on the autograd tape (no scope is
/// bound): the bit-identity reference for the tape-free PredictScore.
double TapeScore(const core::GsgEncoder& encoder, const graph::Graph& g) {
  EXPECT_EQ(ag::internal::ActiveInferenceArena(), nullptr);
  const Matrix logits =
      encoder.Logits(encoder.EmbedGraph(g, /*training=*/false, nullptr))
          .value();
  return logits.At(0, 1) - logits.At(0, 0);
}

double TapeScore(const core::LdgEncoder& encoder,
                 const std::vector<graph::Graph>& slices) {
  EXPECT_EQ(ag::internal::ActiveInferenceArena(), nullptr);
  const Matrix logits = encoder.Logits(encoder.EmbedSlices(slices)).value();
  return logits.At(0, 1) - logits.At(0, 0);
}

TEST(GsgFastPathTest, TapeFreeSoloScoreIsBitIdentical) {
  core::GsgEncoder encoder(SmallGsgConfig());
  graph::Graph g = MakeGraph(6, 6, 41);
  const double tape = TapeScore(encoder, g);
  const double fast = encoder.PredictScore(g);
  ExpectSameBits(fast, tape);
}

TEST(LdgFastPathTest, TapeFreeSoloScoreIsBitIdentical) {
  core::LdgEncoder encoder(SmallLdgConfig());
  const auto slices = MakeSlices(5, 6, 3, 61);
  const double tape = TapeScore(encoder, slices);
  const double fast = encoder.PredictScore(slices);
  ExpectSameBits(fast, tape);
}

TEST(EncoderFastPathTest, PredictScoreRunsTapeFreeWithoutACallerScope) {
  // No caller scope: a warm second score builds no autograd nodes.
  core::GsgEncoder encoder(SmallGsgConfig());
  const graph::Graph g = MakeGraph(6, 6, 42);
  core::LdgEncoder ldg(SmallLdgConfig());
  const auto slices = MakeSlices(5, 6, 3, 62);
  encoder.PredictScore(g);
  ldg.PredictScore(slices);
  const uint64_t nodes_before = ag::internal::NodeAllocationCount();
  encoder.PredictScore(g);
  ldg.PredictScore(slices);
  EXPECT_EQ(ag::internal::NodeAllocationCount(), nodes_before);
}

TEST(EncoderFastPathTest, MlpPredictProbaRunsTapeFreeWithoutACallerScope) {
  // The "w/o LightGBM" head and the embedding baselines' classifier.
  Rng rng(7);
  Matrix x(40, 3);
  std::vector<int> y;
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) x.At(r, c) = rng.Normal();
    y.push_back(x.At(r, 0) > 0 ? 1 : 0);
  }
  ml::MlpConfig config;
  config.hidden_dims = {8};
  config.epochs = 5;
  ml::MlpClassifier head(config);
  ASSERT_TRUE(head.Train(x, y).ok());
  const double first = head.PredictProba(x.RowPtr(0));
  const uint64_t nodes_before = ag::internal::NodeAllocationCount();
  EXPECT_EQ(head.PredictProba(x.RowPtr(0)), first);
  EXPECT_EQ(ag::internal::NodeAllocationCount(), nodes_before);
}

// --------------------------------------------------------------------------
// Arena mechanics: pooling, reuse, lifetime.
// --------------------------------------------------------------------------

TEST(InferenceArenaTest, SteadyStatePassAllocatesNoNodesOrBuffers) {
  core::GsgEncoder encoder(SmallGsgConfig());
  const graph::Graph g = MakeGraph(6, 6, 80);
  // One solo score per scope, as a serving worker runs them: the first
  // pass warms the thread-local arena's node pool and buffer free list;
  // the second identical pass must reuse everything.
  auto score = [&] {
    ag::InferenceScope scope;
    EXPECT_TRUE(scope.bound());
    return encoder.PredictScore(g);
  };
  const double first = score();
  const uint64_t nodes_before = ag::internal::NodeAllocationCount();
  const double second = score();
  EXPECT_EQ(ag::internal::NodeAllocationCount(), nodes_before)
      << "steady-state fast-path pass allocated autograd nodes";
  EXPECT_DOUBLE_EQ(first, second);

  const ag::InferenceArena* arena = ag::InferenceArena::ThreadLocal();
  const ag::InferenceArena::PassStats& stats = arena->pass_stats();
  EXPECT_GT(stats.nodes, 0u);
  EXPECT_EQ(stats.fresh_nodes, 0u);
  EXPECT_GT(stats.buffers, 0u);
  EXPECT_EQ(stats.fresh_buffers, 0u);
  EXPECT_EQ(stats.fresh_bytes, 0u);
  EXPECT_GT(arena->owned_bytes(), 0u);
  EXPECT_GT(arena->pooled_nodes(), 0u);
}

TEST(InferenceArenaTest, HeldTensorsSurviveTheNextPass) {
  ag::Tensor held;
  {
    ag::InferenceScope scope;
    held = ag::Relu(
        ag::Tensor::Constant(Matrix::FromFlat(1, 2, {-1.0, 2.0})));
  }
  {
    // The next scope's BeginPass reclaims the previous pass; the held
    // node must be abandoned to its holder, not recycled under it.
    ag::InferenceScope scope;
    ag::Tensor other = ag::Relu(
        ag::Tensor::Constant(Matrix::FromFlat(1, 2, {3.0, -4.0})));
    EXPECT_DOUBLE_EQ(other.value().At(0, 0), 3.0);
  }
  EXPECT_DOUBLE_EQ(held.value().At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(held.value().At(0, 1), 2.0);
}

TEST(InferenceArenaTest, ConstantsDoNotGrowTheHeapAcrossPasses) {
  // Each pass builds a constant under its scope, as the encoders do with
  // their input features. Its storage must come back to the pool, not be
  // added to it on top of the buffers the pool already owns.
  auto pass = [] {
    ag::InferenceScope scope;
    ag::Tensor input = ag::Tensor::Constant(Matrix(64, 64));
    EXPECT_EQ(input.value().rows(), 64);
  };
  for (int i = 0; i < 4; ++i) pass();  // Warm the pool.
  const size_t before = mallinfo2().uordblks;
  for (int i = 0; i < 500; ++i) pass();
  const double grown_bytes = static_cast<double>(mallinfo2().uordblks) -
                             static_cast<double>(before);
  // One 32 KB buffer per pass would add ~16 MB.
  EXPECT_LT(grown_bytes, 1.0e6);
}

TEST(InferenceArenaTest, PassOwnsOnlyItsLiveBuffers) {
  // A chain of element-wise ops, each result replacing the previous one:
  // at any time only the input, the current result and the op's output
  // are live, so the pass must recycle everything else as it goes.
  constexpr size_t kBufferBytes = 64 * 64 * sizeof(double);
  ag::InferenceArena arena;
  ag::InferenceScope scope(&arena);
  const ag::Tensor x = ag::Tensor::Constant(Matrix(64, 64, 0.5));
  ag::Tensor t = x;
  for (int i = 0; i < 100; ++i) {
    t = ag::Add(t, x);
    ASSERT_LE(arena.owned_bytes(), 3 * kBufferBytes) << "after op " << i;
  }
  EXPECT_EQ(t.value().At(63, 63), 50.5);
  EXPECT_EQ(arena.pass_stats().fresh_buffers, 3u);
}

TEST(InferenceArenaTest, HeldTensorKeepsItsBitsWhileOthersRecycle) {
  Rng rng(90);
  ag::InferenceArena arena;
  ag::InferenceScope scope(&arena);
  const ag::Tensor x =
      ag::Tensor::Constant(Matrix::Random(16, 16, &rng, -2.0, 2.0));
  const ag::Tensor held = ag::Tanh(x);
  const Matrix expected = held.value();
  // Same-shape results that drop at once: each one's buffer is the first
  // candidate for the next op, and the held one must never be among them.
  for (int i = 0; i < 50; ++i) {
    const ag::Tensor dropped = ag::Sigmoid(ag::ScalarAdd(x, i));
    EXPECT_EQ(dropped.rows(), 16);
  }
  ExpectSameBits(held.value(), expected);
  EXPECT_LE(arena.owned_bytes(), 4 * 16 * 16 * sizeof(double));
}

TEST(InferenceArenaTest, LdgServingShapePassStaysSmallAndBitIdentical) {
  // The serving shape: a 41-node subgraph, T = 6 slices, hidden 24. The
  // pass makes 265 activations, 1.3 MB if all were held at once; its live
  // set needs about a tenth of that.
  core::LdgEncoderConfig config;
  config.hidden_dim = 24;
  config.num_time_slices = 6;
  config.seed = 33;
  core::LdgEncoder encoder(config);
  const auto slices = MakeSlices(41, config.node_feature_dim, 6, 71);
  const double tape = TapeScore(encoder, slices);
  ag::InferenceArena arena;
  double fast = 0.0;
  {
    ag::InferenceScope scope(&arena);
    fast = encoder.PredictScore(slices);
  }
  EXPECT_EQ(std::memcmp(&fast, &tape, sizeof(double)), 0)
      << fast << " vs " << tape;
  EXPECT_GT(arena.owned_bytes(), 0u);
  EXPECT_LT(arena.owned_bytes(), 512u * 1024u);
}

TEST(InferenceArenaTest, NestedScopesShareOnePass) {
  ag::InferenceScope outer;
  ASSERT_TRUE(outer.bound());
  const size_t pooled = ag::InferenceArena::ThreadLocal()->pooled_nodes();
  {
    ag::InferenceScope inner;
    EXPECT_FALSE(inner.bound());  // No rebind, no BeginPass.
    ag::Tensor t = ag::Tensor::Constant(Matrix::FromFlat(1, 1, {1.0}));
    EXPECT_DOUBLE_EQ(t.value().At(0, 0), 1.0);
  }
  // The inner scope's destruction must not have unbound the arena.
  EXPECT_NE(ag::internal::ActiveInferenceArena(), nullptr);
  (void)pooled;
}

}  // namespace
}  // namespace dbg4eth
