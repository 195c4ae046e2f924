#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "eth/dataset.h"
#include "eth/ledger.h"
#include "eth/types.h"
#include "graph/build.h"
#include "graph/centrality.h"
#include "graph/graph.h"
#include "tensor/sparse.h"

namespace dbg4eth {
namespace graph {
namespace {

Graph PathGraph3() {
  // 0 -> 1 -> 2
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}};
  g.edge_features = Matrix::FromFlat(2, 2, {10.0, 2.0, 5.0, 1.0});
  return g;
}

TEST(GraphTest, DenseAdjacency) {
  Graph g = PathGraph3();
  Matrix a = g.DenseAdjacency(/*symmetric=*/false, /*self_loops=*/false);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.At(1, 0), 0.0);
  Matrix sym = g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/true);
  EXPECT_DOUBLE_EQ(sym.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(sym.At(2, 2), 1.0);
}

TEST(GraphTest, NormalizedAdjacencyRowsBounded) {
  Graph g = PathGraph3();
  Matrix norm = g.NormalizedAdjacencySparse()->ToDense();
  // Symmetric and entries in (0, 1].
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(norm.At(i, j), norm.At(j, i), 1e-12);
      EXPECT_GE(norm.At(i, j), 0.0);
      EXPECT_LE(norm.At(i, j), 1.0);
    }
  }
  // Middle node: deg 3 (self loop + 2 neighbors).
  EXPECT_NEAR(norm.At(1, 1), 1.0 / 3.0, 1e-12);
}

TEST(GraphTest, WeightedAdjacencyRowStochastic) {
  Graph g = PathGraph3();
  Matrix w = g.WeightedAdjacencySparse()->ToDense();
  for (int i = 0; i < 3; ++i) {
    double row = 0.0;
    for (int j = 0; j < 3; ++j) row += w.At(i, j);
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
  // Edge 0-1 has larger value than 1-2, so it gets more weight from node 1.
  EXPECT_GT(w.At(1, 0), w.At(1, 2));
}

// Test-local copies of the dense construction the CSR builders replaced:
// an N x N matrix per operator, converted with SparseMatrix::FromDense.
Matrix DenseNormalizedReference(const Graph& g) {
  Matrix adj = g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/true);
  const int n = g.num_nodes;
  std::vector<double> inv_sqrt_deg(n);
  for (int i = 0; i < n; ++i) {
    double deg = 0.0;
    for (int j = 0; j < n; ++j) deg += adj.At(i, j);
    inv_sqrt_deg[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      adj.At(i, j) *= inv_sqrt_deg[i] * inv_sqrt_deg[j];
    }
  }
  return adj;
}

Matrix DenseWeightedReference(const Graph& g) {
  const int n = g.num_nodes;
  Matrix adj(n, n);
  for (int m = 0; m < g.num_edges(); ++m) {
    const Edge& e = g.edges[m];
    double w = 0.0;
    if (!g.edge_features.empty()) {
      w = std::log1p(std::max(0.0, g.edge_features.At(m, 0)));
    } else {
      w = 1.0;
    }
    adj.At(e.src, e.dst) += w;
    adj.At(e.dst, e.src) += w;
  }
  for (int i = 0; i < n; ++i) adj.At(i, i) += 1.0;
  for (int i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < n; ++j) row_sum += adj.At(i, j);
    if (row_sum > 0.0) {
      for (int j = 0; j < n; ++j) adj.At(i, j) /= row_sum;
    }
  }
  return adj;
}

void ExpectSameCsr(const SparseMatrix& got, const Matrix& dense_reference,
                   const std::string& what) {
  const SparseMatrix want = SparseMatrix::FromDense(dense_reference);
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(got.row_offsets(), want.row_offsets()) << what;
  EXPECT_EQ(got.col_indices(), want.col_indices()) << what;
  ASSERT_EQ(got.values().size(), want.values().size()) << what;
  for (size_t e = 0; e < want.values().size(); ++e) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got.values()[e]),
              std::bit_cast<uint64_t>(want.values()[e]))
        << what << ": entry " << e << " is " << got.values()[e]
        << ", reference " << want.values()[e];
  }
}

/// Compares all three operators of `g` with the dense reference, field for
/// field, values by bit pattern.
void ExpectOperatorsMatchTheDenseReference(const Graph& g,
                                           const std::string& what) {
  ExpectSameCsr(*g.NormalizedAdjacencySparse(), DenseNormalizedReference(g),
                what + " normalized");
  ExpectSameCsr(*g.AttentionMaskSparse(),
                g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/true),
                what + " attention support");
  ExpectSameCsr(*g.WeightedAdjacencySparse(), DenseWeightedReference(g),
                what + " weighted");
}

TEST(GraphTest, CsrOperatorsMatchTheDenseReference) {
  // Hand-built corner cases. Edges are deliberately not sorted, one pair
  // repeats, node 0 has a self-loop edge, (1, 2) and (2, 1) are
  // antiparallel, (3, 1) carries value 0 and (0, 3) a negative value, and
  // nodes 4 and 5 are isolated.
  Graph corners;
  corners.num_nodes = 6;
  corners.edges = {{2, 1}, {0, 0}, {1, 2}, {3, 1}, {0, 3}, {1, 2}, {0, 1}};
  corners.edge_features = Matrix::FromFlat(
      7, 2, {0.7, 1, 0.1, 1, 3.0, 2, 0.0, 1, -1.0, 1, 0.3, 1, 1e6, 4});
  ExpectOperatorsMatchTheDenseReference(corners, "corners");

  Graph unvalued = corners;  // No edge features: every edge weighs 1.
  unvalued.edge_features = Matrix();
  ExpectOperatorsMatchTheDenseReference(unvalued, "empty edge_features");

  Graph edgeless;  // An LDG slice with no transactions.
  edgeless.num_nodes = 4;
  edgeless.edge_features = Matrix(0, 1);
  ExpectOperatorsMatchTheDenseReference(edgeless, "edgeless slice");
  ExpectOperatorsMatchTheDenseReference(Graph{}, "no nodes");

  // The GSG and every LDG slice of every instance of a simulator dataset.
  eth::LedgerConfig ledger_config;
  ledger_config.num_normal = 600;
  ledger_config.duration_days = 90.0;
  ledger_config.seed = 21;
  eth::LedgerSimulator ledger(ledger_config);
  ASSERT_TRUE(ledger.Generate().ok());
  int graphs = 0;
  for (int slices : {6, 10}) {
    eth::DatasetConfig config;
    config.target = eth::AccountClass::kExchange;
    config.num_time_slices = slices;
    auto ds = eth::BuildDataset(ledger, config);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (const eth::GraphInstance& inst : ds.ValueOrDie().instances) {
      ExpectOperatorsMatchTheDenseReference(inst.gsg, "gsg");
      for (const Graph& slice : inst.ldg) {
        ExpectOperatorsMatchTheDenseReference(slice, "slice");
      }
      graphs += 1 + static_cast<int>(inst.ldg.size());
    }
  }
  EXPECT_GT(graphs, 100);
}

TEST(GraphTest, UndirectedDegrees) {
  Graph g = PathGraph3();
  auto deg = g.UndirectedDegrees();
  EXPECT_EQ(deg[0], 1);
  EXPECT_EQ(deg[1], 2);
  EXPECT_EQ(deg[2], 1);
}

eth::TxSubgraph MakeSubgraph() {
  eth::TxSubgraph sub;
  sub.nodes = {100, 200, 300};
  sub.is_contract = {false, false, true};
  sub.center_index = 0;
  sub.label = 1;
  auto add = [&](int s, int d, double v, double t, bool contract) {
    eth::LocalTransaction tx;
    tx.src = s;
    tx.dst = d;
    tx.value = v;
    tx.timestamp = t;
    tx.gas_price = 2e10;
    tx.gas_used = 21000;
    tx.is_contract_call = contract;
    sub.txs.push_back(tx);
  };
  add(0, 1, 1.0, 0.0, false);
  add(0, 1, 2.0, 100.0, false);
  add(1, 0, 4.0, 200.0, false);
  add(0, 2, 8.0, 900.0, true);
  add(2, 0, 3.0, 1000.0, false);
  return sub;
}

TEST(BuildTest, GlobalStaticGraphMergesEdges) {
  Graph g = BuildGlobalStaticGraph(MakeSubgraph());
  EXPECT_EQ(g.num_nodes, 3);
  EXPECT_EQ(g.num_edges(), 4);  // (0,1), (1,0), (0,2), (2,0)
  EXPECT_EQ(g.label, 1);
  // Find merged (0,1): w = 3, t = 2.
  bool found = false;
  for (int m = 0; m < g.num_edges(); ++m) {
    if (g.edges[m].src == 0 && g.edges[m].dst == 1) {
      EXPECT_DOUBLE_EQ(g.edge_features.At(m, 0), 3.0);
      EXPECT_DOUBLE_EQ(g.edge_features.At(m, 1), 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BuildTest, EvolutionTimesNormalized) {
  auto times = EvolutionTimes(MakeSubgraph());
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.front(), 0.0);
  EXPECT_DOUBLE_EQ(times.back(), 1.0);
  for (double t : times) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(BuildTest, EvolutionTimesDegenerateSpan) {
  eth::TxSubgraph sub = MakeSubgraph();
  for (auto& tx : sub.txs) tx.timestamp = 42.0;
  auto times = EvolutionTimes(sub);
  for (double t : times) EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(BuildTest, LocalDynamicGraphsPartitionTransactions) {
  const int kSlices = 5;
  auto slices = BuildLocalDynamicGraphs(MakeSubgraph(), kSlices);
  ASSERT_EQ(slices.size(), static_cast<size_t>(kSlices));
  int total_count = 0;
  for (const Graph& s : slices) {
    EXPECT_EQ(s.num_nodes, 3);
    EXPECT_EQ(s.edge_features.cols(), s.num_edges() > 0 ? 1 : 1);
    for (int m = 0; m < s.num_edges(); ++m) {
      EXPECT_GT(s.edge_features.At(m, 0), 0.0);
    }
    total_count += s.num_edges();
  }
  // 5 transactions, some merged within slices; at least 1 edge total and
  // no more than 5.
  EXPECT_GE(total_count, 1);
  EXPECT_LE(total_count, 5);
  // Last slice holds the tx at t_max.
  EXPECT_GT(slices[kSlices - 1].num_edges(), 0);
}

TEST(BuildTest, SingleSliceEqualsStaticTopology) {
  auto slices = BuildLocalDynamicGraphs(MakeSubgraph(), 1);
  Graph gsg = BuildGlobalStaticGraph(MakeSubgraph());
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].num_edges(), gsg.num_edges());
}

TEST(CentralityTest, DegreeCentralityPath) {
  Graph g = PathGraph3();
  auto c = DegreeCentrality(g);
  EXPECT_NEAR(c[1], 1.0, 1e-12);   // degree 2 / (n-1)=2
  EXPECT_NEAR(c[0], 0.5, 1e-12);
}

TEST(CentralityTest, EigenvectorCenterDominates) {
  // Star graph: center 0 connected to 1..4.
  Graph g;
  g.num_nodes = 5;
  for (int i = 1; i < 5; ++i) g.edges.push_back({0, i});
  auto c = EigenvectorCentrality(g);
  for (int i = 1; i < 5; ++i) EXPECT_GT(c[0], c[i]);
  // Norm ~1.
  double norm = 0.0;
  for (double v : c) norm += v * v;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(CentralityTest, PageRankSumsToOne) {
  Graph g = PathGraph3();
  auto pr = PageRankCentrality(g);
  double sum = 0.0;
  for (double v : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(pr[1], pr[0]);  // middle node most central
}

TEST(CentralityTest, EdgeCentralityNonNegativeAndOrdered) {
  Graph g;
  g.num_nodes = 5;
  g.edges = {{0, 1}, {0, 2}, {0, 3}, {3, 4}};
  for (auto measure :
       {CentralityMeasure::kDegree, CentralityMeasure::kEigenvector,
        CentralityMeasure::kPageRank}) {
    auto ec = EdgeCentrality(g, measure);
    ASSERT_EQ(ec.size(), g.edges.size());
    for (double v : ec) EXPECT_GE(v, 0.0);
    // Edge (0,1) touches the hub; edge (3,4) is peripheral.
    EXPECT_GE(ec[0], ec[3]);
  }
}

}  // namespace
}  // namespace graph
}  // namespace dbg4eth
