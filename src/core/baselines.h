#ifndef DBG4ETH_CORE_BASELINES_H_
#define DBG4ETH_CORE_BASELINES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"

namespace dbg4eth {
namespace core {

/// The 14 baselines of Table III (plus the "w/o node feature" variants of
/// GCN/GAT/GIN/I2BGNN, rows 3/5/7/13).
enum class BaselineKind {
  kDeepWalk,
  kNode2Vec,
  kGcnNoFeatures,
  kGcn,
  kGatNoFeatures,
  kGat,
  kGinNoFeatures,
  kGin,
  kGraphSage,
  kAppnp,
  kGrit,
  kTrans2Vec,
  kI2bgnnNoFeatures,
  kI2bgnn,
  kTsgn,
  kEthident,
  kTegDetector,
  kBert4Eth,
};

/// Display name matching the paper's table rows.
const char* BaselineName(BaselineKind kind);

/// All baselines in Table III row order.
std::vector<BaselineKind> AllBaselines();

/// \brief Shared baseline hyperparameters (paper Sec. V-A4, scaled to the
/// synthetic substrate).
struct BaselineConfig {
  int hidden_dim = 32;
  int num_heads = 2;
  int epochs = 8;
  double learning_rate = 0.01;
  double train_fraction = 0.6;
  double val_fraction = 0.2;
  /// BERT4ETH stand-in: number of most recent center transactions encoded.
  int sequence_length = 32;
  /// Graph-embedding baselines.
  int embedding_dim = 32;
  int walks_per_node = 6;
  int walk_length = 20;
  uint64_t seed = 11;
};

/// Trains the baseline on train+val and evaluates on the test split of a
/// stratified split (baselines have no calibration stage, so validation
/// data joins training as in the paper's protocol). The dataset is
/// standardized in place with train-split statistics.
Result<EvaluationReport> RunBaseline(BaselineKind kind,
                                     eth::SubgraphDataset* dataset,
                                     const BaselineConfig& config);

}  // namespace core
}  // namespace dbg4eth

#endif  // DBG4ETH_CORE_BASELINES_H_
