#ifndef DBG4ETH_ETH_DATASET_H_
#define DBG4ETH_ETH_DATASET_H_

#include <vector>

#include "common/result.h"
#include "eth/ledger.h"
#include "eth/types.h"
#include "features/node_features.h"
#include "graph/build.h"
#include "graph/graph.h"
#include "graph/sampling.h"

namespace dbg4eth {
namespace eth {

/// \brief Configuration for one binary account-identification dataset
/// ("is this account an <target>?", Section V-A1).
struct DatasetConfig {
  AccountClass target = AccountClass::kExchange;
  /// Cap on positive (labeled) centers; -1 keeps all available.
  int max_positives = -1;
  /// Negatives per positive. Table II has graphs ~= 2x positives, i.e. 1.0.
  double negative_ratio = 1.0;
  /// Fraction of negative centers drawn from other labeled classes (the
  /// rest are active normal users).
  double hard_negative_fraction = 0.45;
  graph::SamplingConfig sampling;
  /// Number of LDG time slices T (paper uses 10).
  int num_time_slices = 10;
  uint64_t seed = 7;
};

/// \brief One classification instance: the sampled subgraph plus its GSG
/// and LDG materializations with log-scaled node features attached.
/// The node features (N x 15) are stored in `gsg` (the GSG encoder's
/// input) and in `ldg.front()` (the LDG encoder's h_0, TEGDetector's
/// input) only; later slices carry topology alone.
struct GraphInstance {
  TxSubgraph subgraph;
  graph::Graph gsg;
  std::vector<graph::Graph> ldg;
  int label = 0;
};

/// \brief A binary subgraph-classification dataset for one account type.
struct SubgraphDataset {
  AccountClass target = AccountClass::kNormal;
  std::vector<GraphInstance> instances;

  int num_graphs() const { return static_cast<int>(instances.size()); }
  int num_positives() const;
  double avg_nodes() const;
  double avg_edges() const;
  std::vector<int> labels() const;
};

/// Materializes the account-centred instance for a single address: top-K
/// subgraph sampling around `center`, GSG and LDG construction, and
/// log-scaled node features (Table I). This is the per-request path the
/// serving layer uses; BuildDataset applies the same expansion to every
/// center. Fails with NotFound when the center has no transactions and
/// FailedPrecondition when the subgraph is degenerate (< 3 nodes or no
/// transactions). The returned instance carries raw log-scaled features;
/// standardize with StandardizeInstance / Dbg4Eth::Normalize before
/// scoring.
Result<GraphInstance> MaterializeInstance(const Ledger& ledger,
                                          AccountId center,
                                          const graph::SamplingConfig& sampling,
                                          int num_time_slices);

/// Builds the dataset: positive centers are all (or max_positives) accounts
/// of the target class, in seeded shuffled order. Negative centers come
/// from two seeded shuffled pools, the other labeled classes ("hard") and
/// active normal users: while fewer than hard_negative_fraction of the
/// wanted negatives have been added the next one is drawn from the hard
/// pool, after that from the normal pool, and from the other pool when
/// one runs dry. A center whose subgraph MaterializeInstance rejects is
/// skipped. Every center is expanded with top-K sampling, node features
/// are computed per Table I and log-scaled (dataset-level standardization
/// is applied by the training harness on the train split).
Result<SubgraphDataset> BuildDataset(const Ledger& ledger,
                                     const DatasetConfig& config);

/// Standardizes node features of all instances in place using statistics of
/// the instances listed in `fit_indices` (typically the training split).
/// The GSG and the first LDG slice get the standardized matrix; later
/// slices carry no features (see GraphInstance). When
/// `fitted` is non-null the fitted normalizer is returned so callers can
/// standardize instances materialized outside the dataset the same way.
void StandardizeDataset(SubgraphDataset* dataset,
                        const std::vector<int>& fit_indices,
                        features::FeatureNormalizer* fitted = nullptr);

/// Applies a fitted normalizer to one instance's node features in place
/// (the GSG's, copied to the first LDG slice; see GraphInstance).
void StandardizeInstance(const features::FeatureNormalizer& normalizer,
                         GraphInstance* instance);

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_DATASET_H_
