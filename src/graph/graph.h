#ifndef DBG4ETH_GRAPH_GRAPH_H_
#define DBG4ETH_GRAPH_GRAPH_H_

#include <memory>
#include <mutex>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace dbg4eth {
namespace graph {

/// Directed merged interaction edge between two subgraph nodes.
struct Edge {
  int src = 0;
  int dst = 0;
};

namespace internal {

/// \brief Lazily built CSR graph operators of one Graph.
///
/// Every trainer epoch and every cold score reads the same operators of a
/// graph; this builds each one once. Thread-safe: the mutex guards lazy
/// initialization, and operators are immutable once built, so concurrent
/// trainer threads share them.
///
/// Copying (or moving) a cache yields a cold cache: the new owner's graph
/// may diverge from the source afterwards, and rebuilding is always
/// correct. This also keeps Graph cheaply movable despite the mutex.
class AdjacencyCache {
 public:
  AdjacencyCache() = default;
  AdjacencyCache(const AdjacencyCache&) {}
  AdjacencyCache& operator=(const AdjacencyCache&) {
    std::lock_guard<std::mutex> lock(mu);
    normalized_sparse.reset();
    attention_mask_sparse.reset();
    weighted_sparse.reset();
    return *this;
  }

  mutable std::mutex mu;
  mutable std::shared_ptr<const SparseMatrix> normalized_sparse;
  mutable std::shared_ptr<const SparseMatrix> attention_mask_sparse;
  mutable std::shared_ptr<const SparseMatrix> weighted_sparse;
};

}  // namespace internal

/// \brief Account interaction graph: the input of the GNN encoders.
///
/// For the Global Static Graph (GSG) the edge feature matrix holds
/// [total value w, transaction count t] per merged edge; for a Local
/// Dynamic Graph (LDG) time slice it holds [w^k] (Section III-B3).
///
/// The three graph operators (NormalizedAdjacencySparse,
/// AttentionMaskSparse, WeightedAdjacencySparse) are CSR matrices built
/// straight from the edge list on first use and cached. Rule: a graph's
/// `num_nodes`, `edges` and `edge_features` do not change once an operator
/// has been read. Code that needs other edges builds a new Graph (as
/// augment::AugmentGraph does); a copy starts with a cold cache. Mutating
/// `node_features` alone (e.g. feature standardization) is fine: the
/// operators are derived from the edge structure only.
struct Graph {
  int num_nodes = 0;
  std::vector<Edge> edges;
  Matrix node_features;  ///< num_nodes x d1 (may be empty until attached).
  Matrix edge_features;  ///< edges.size() x d2, or empty.
  int center = 0;        ///< Local index of the target account.
  int label = 0;         ///< Binary task label.

  int num_edges() const { return static_cast<int>(edges.size()); }

  /// Dense adjacency with 1.0 at connected pairs. `symmetric` unions both
  /// directions (GNNs on account graphs treat interaction as symmetric
  /// message passing); `self_loops` adds the identity. Not cached.
  Matrix DenseAdjacency(bool symmetric = true, bool self_loops = false) const;

  /// Symmetric GCN propagation matrix D^{-1/2} (A + I) D^{-1/2}, where A is
  /// the symmetrized 0/1 adjacency and D counts each row's entries. Cached;
  /// the shared_ptr lets autograd tape nodes outlive the Graph.
  std::shared_ptr<const SparseMatrix> NormalizedAdjacencySparse() const;

  /// GAT attention support: 1.0 at every pair of A + I (symmetrized
  /// adjacency plus self loops). Cached.
  std::shared_ptr<const SparseMatrix> AttentionMaskSparse() const;

  /// Value-weighted propagation matrix of the LDG slice topology:
  /// log1p(max(0, edge value)) summed over the edges joining a pair (both
  /// directions; value 1 per edge when `edge_features` is empty), plus 1
  /// on the diagonal, then each row divided by its sum. The value is edge
  /// feature column 0. Cached.
  std::shared_ptr<const SparseMatrix> WeightedAdjacencySparse() const;

  /// Undirected degree (in + out, counting each merged edge once).
  std::vector<int> UndirectedDegrees() const;

  /// Cache member is public to keep Graph an aggregate; treat as private.
  internal::AdjacencyCache adjacency_cache_;
};

}  // namespace graph
}  // namespace dbg4eth

#endif  // DBG4ETH_GRAPH_GRAPH_H_
