#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace dbg4eth {
namespace graph {

Matrix Graph::DenseAdjacency(bool symmetric, bool self_loops) const {
  Matrix adj(num_nodes, num_nodes);
  for (const Edge& e : edges) {
    DBG4ETH_CHECK(e.src >= 0 && e.src < num_nodes);
    DBG4ETH_CHECK(e.dst >= 0 && e.dst < num_nodes);
    adj.At(e.src, e.dst) = 1.0;
    if (symmetric) adj.At(e.dst, e.src) = 1.0;
  }
  if (self_loops) {
    for (int i = 0; i < num_nodes; ++i) adj.At(i, i) = 1.0;
  }
  return adj;
}

namespace {

/// CSR arrays of an N x N operator under construction.
struct CsrArrays {
  std::vector<int> offsets;
  std::vector<int> cols;
  std::vector<double> values;
};

/// Builds A + I of `g` (A symmetrized) in CSR from the edge list in one
/// counted pass: columns ascend and are unique within a row. The value of
/// entry (i, j) is 0.0 plus `edge_weight(m)` for every edge m joining i
/// and j, in edge order (twice for a self-loop edge, which fills both of
/// its directions into one row), plus 1.0 on the diagonal after the
/// edges: the summation order of the dense construction, so the sums are
/// bit-identical to it.
template <typename EdgeWeight>
CsrArrays BuildSymmetricWithSelfLoops(const Graph& g, EdgeWeight edge_weight) {
  const int n = g.num_nodes;
  CsrArrays csr;
  // 1. Count: each edge fills one slot in the row of each endpoint, and
  // every node one slot for its self loop.
  csr.offsets.assign(n + 1, 0);
  for (const Edge& e : g.edges) {
    DBG4ETH_CHECK(e.src >= 0 && e.src < n);
    DBG4ETH_CHECK(e.dst >= 0 && e.dst < n);
    ++csr.offsets[e.src + 1];
    ++csr.offsets[e.dst + 1];
  }
  for (int i = 0; i < n; ++i) csr.offsets[i + 1] += csr.offsets[i] + 1;

  // 2. Fill in insertion order: both directions of every edge, then the
  // self loops.
  csr.cols.resize(csr.offsets[n]);
  csr.values.resize(csr.offsets[n]);
  std::vector<int> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  auto put = [&](int row, int col, double value) {
    const int slot = cursor[row]++;
    csr.cols[slot] = col;
    csr.values[slot] = value;
  };
  for (int m = 0; m < g.num_edges(); ++m) {
    const double w = edge_weight(m);
    put(g.edges[m].src, g.edges[m].dst, w);
    put(g.edges[m].dst, g.edges[m].src, w);
  }
  for (int i = 0; i < n; ++i) put(i, i, 1.0);

  // 3. Per row: a stable insertion sort by column keeps equal columns in
  // insertion order; then each run of equal columns merges into one entry,
  // compacted in place (the write position never passes the read one).
  int out = 0;
  for (int i = 0; i < n; ++i) {
    const int begin = csr.offsets[i];
    const int end = csr.offsets[i + 1];
    for (int s = begin + 1; s < end; ++s) {
      const int col = csr.cols[s];
      const double value = csr.values[s];
      int k = s;
      for (; k > begin && csr.cols[k - 1] > col; --k) {
        csr.cols[k] = csr.cols[k - 1];
        csr.values[k] = csr.values[k - 1];
      }
      csr.cols[k] = col;
      csr.values[k] = value;
    }
    csr.offsets[i] = out;
    for (int s = begin; s < end;) {
      const int col = csr.cols[s];
      double sum = 0.0;
      for (; s < end && csr.cols[s] == col; ++s) sum += csr.values[s];
      csr.cols[out] = col;
      csr.values[out] = sum;
      ++out;
    }
  }
  csr.offsets[n] = out;
  csr.cols.resize(out);
  csr.values.resize(out);
  return csr;
}

std::shared_ptr<const SparseMatrix> Adopt(int n, CsrArrays csr) {
  return std::make_shared<const SparseMatrix>(
      SparseMatrix::FromCsr(n, n, std::move(csr.offsets), std::move(csr.cols),
                            std::move(csr.values)));
}

std::shared_ptr<const SparseMatrix> BuildAttentionSupport(const Graph& g) {
  CsrArrays csr = BuildSymmetricWithSelfLoops(g, [](int) { return 1.0; });
  std::fill(csr.values.begin(), csr.values.end(), 1.0);
  return Adopt(g.num_nodes, std::move(csr));
}

std::shared_ptr<const SparseMatrix> BuildNormalizedOperator(const Graph& g) {
  CsrArrays csr = BuildSymmetricWithSelfLoops(g, [](int) { return 1.0; });
  const int n = g.num_nodes;
  // deg counts a row's entries; every row has its self loop, so deg >= 1.
  std::vector<double> inv_sqrt_deg(n);
  for (int i = 0; i < n; ++i) {
    const double deg = csr.offsets[i + 1] - csr.offsets[i];
    inv_sqrt_deg[i] = 1.0 / std::sqrt(deg);
  }
  for (int i = 0; i < n; ++i) {
    for (int e = csr.offsets[i]; e < csr.offsets[i + 1]; ++e) {
      csr.values[e] = inv_sqrt_deg[i] * inv_sqrt_deg[csr.cols[e]];
    }
  }
  return Adopt(n, std::move(csr));
}

std::shared_ptr<const SparseMatrix> BuildWeightedOperator(const Graph& g) {
  const bool has_values = !g.edge_features.empty();
  DBG4ETH_CHECK(!has_values || g.edge_features.rows() == g.num_edges());
  CsrArrays csr = BuildSymmetricWithSelfLoops(g, [&](int m) {
    return has_values ? std::log1p(std::max(0.0, g.edge_features.At(m, 0)))
                      : 1.0;
  });
  // Row normalization keeps propagation scale independent of degree. The
  // row sum runs in ascending column order, and entries that are not
  // strictly nonzero afterwards are dropped, as a dense row would be.
  const int n = g.num_nodes;
  int out = 0;
  for (int i = 0; i < n; ++i) {
    const int begin = csr.offsets[i];
    const int end = csr.offsets[i + 1];
    double row_sum = 0.0;
    for (int e = begin; e < end; ++e) row_sum += csr.values[e];
    csr.offsets[i] = out;
    for (int e = begin; e < end; ++e) {
      const double value =
          row_sum > 0.0 ? csr.values[e] / row_sum : csr.values[e];
      if (!(std::fabs(value) > 0.0)) continue;
      csr.cols[out] = csr.cols[e];
      csr.values[out] = value;
      ++out;
    }
  }
  csr.offsets[n] = out;
  csr.cols.resize(out);
  csr.values.resize(out);
  return Adopt(n, std::move(csr));
}

template <typename Build>
std::shared_ptr<const SparseMatrix> Cached(
    std::mutex& mu, std::shared_ptr<const SparseMatrix>& slot, Build build) {
  std::lock_guard<std::mutex> lock(mu);
  if (slot == nullptr) slot = build();
  return slot;
}

}  // namespace

std::shared_ptr<const SparseMatrix> Graph::NormalizedAdjacencySparse() const {
  return Cached(adjacency_cache_.mu, adjacency_cache_.normalized_sparse,
                [this] { return BuildNormalizedOperator(*this); });
}

std::shared_ptr<const SparseMatrix> Graph::AttentionMaskSparse() const {
  return Cached(adjacency_cache_.mu, adjacency_cache_.attention_mask_sparse,
                [this] { return BuildAttentionSupport(*this); });
}

std::shared_ptr<const SparseMatrix> Graph::WeightedAdjacencySparse() const {
  return Cached(adjacency_cache_.mu, adjacency_cache_.weighted_sparse,
                [this] { return BuildWeightedOperator(*this); });
}

std::vector<int> Graph::UndirectedDegrees() const {
  std::vector<int> deg(num_nodes, 0);
  for (const Edge& e : edges) {
    ++deg[e.src];
    if (e.dst != e.src) ++deg[e.dst];
  }
  return deg;
}

}  // namespace graph
}  // namespace dbg4eth
