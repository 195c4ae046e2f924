#ifndef DBG4ETH_CORE_LDG_ENCODER_H_
#define DBG4ETH_CORE_LDG_ENCODER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/parallel_trainer.h"
#include "eth/dataset.h"
#include "gnn/conv.h"
#include "gnn/diffpool.h"
#include "gnn/gru.h"
#include "gnn/linear.h"
#include "graph/graph.h"

namespace dbg4eth {
namespace core {

/// \brief Configuration of the local dynamic account transaction encoding
/// module (paper Sec. IV-B).
struct LdgEncoderConfig {
  int node_feature_dim = 15;
  int hidden_dim = 32;
  int num_time_slices = 10;  ///< Paper: T = 10.
  /// DiffPool stack. The paper pools twice, to 0.1*N clusters then to 1;
  /// with the autograd engine's fixed-parameter layers the first level uses
  /// a fixed cluster count instead of a per-graph fraction.
  int num_pooling_layers = 2;
  int first_level_clusters = 8;
  int num_classes = 2;

  int epochs = 8;
  double learning_rate = 0.01;
  /// Instances per optimizer step. The default of 1 reproduces the
  /// original per-instance SGD exactly; larger batches average the
  /// per-instance gradients (and unlock intra-batch parallelism).
  int batch_size = 1;
  double grad_clip = 5.0;
  uint64_t seed = 2;

  /// Worker threads for intra-batch data parallelism; effective only with
  /// batch_size > 1. 0 = one per hardware thread. Not part of the
  /// checkpoint format.
  int num_threads = 1;
};

/// \brief LDG encoder: per time slice a GCN over the slice topology fed by
/// the previous evolutionary state (Eq. 14), a GRU update (Eq. 15-18),
/// DiffPool compression of each slice (Eq. 19-21), an adaptively weighted
/// read-out over time slices (Eq. 22), and a linear head (Eq. 23).
class LdgEncoder {
 public:
  explicit LdgEncoder(const LdgEncoderConfig& config);

  LdgEncoder(const LdgEncoder&) = delete;
  LdgEncoder& operator=(const LdgEncoder&) = delete;

  /// Embeds the time-slice sequence of one account subgraph into a
  /// 1 x hidden_dim representation (the gamma_i of Eq. 22).
  ag::Tensor EmbedSlices(const std::vector<graph::Graph>& slices) const;

  /// Classification logits of a slice-sequence embedding.
  ag::Tensor Logits(const ag::Tensor& embedding) const;

  /// Branch prediction score: logit(positive) - logit(negative). Runs
  /// tape-free under an ag::InferenceScope.
  double PredictScore(const std::vector<graph::Graph>& slices) const;

  /// \brief Epoch-granular resumable training session: the shared
  /// EpochLoop bound to this encoder's softmax cross-entropy.
  class TrainSession : public EpochLoop {
   public:
    /// The session trains `encoder` on `dataset` instances listed by
    /// `train_indices`. Both pointees must outlive the session.
    TrainSession(LdgEncoder* encoder, const eth::SubgraphDataset* dataset,
                 std::vector<int> train_indices);
  };

  /// Checks that `dataset`/`train_indices` can train this encoder
  /// (non-empty split, matching time-slice count).
  Status ValidateTrainingInputs(const eth::SubgraphDataset& dataset,
                                const std::vector<int>& train_indices) const;

  Status Train(const eth::SubgraphDataset& dataset,
               const std::vector<int>& train_indices);

  std::vector<ag::Tensor> Parameters() const;

  const LdgEncoderConfig& config() const { return config_; }

 private:
  LdgEncoderConfig config_;
  mutable Rng rng_;
  std::unique_ptr<gnn::Linear> input_proj_;  ///< features -> hidden (h_0).
  std::unique_ptr<gnn::GcnConv> topo_gcn_;   ///< Eq. 14.
  std::unique_ptr<gnn::GruCell> gru_;        ///< Eq. 15-18.
  std::vector<std::unique_ptr<gnn::DiffPool>> pools_;  ///< Eq. 19-21.
  ag::Tensor slice_weights_;  ///< T x 1, softmaxed into the alpha_t of Eq. 22.
  std::unique_ptr<gnn::Linear> head_;
};

}  // namespace core
}  // namespace dbg4eth

#endif  // DBG4ETH_CORE_LDG_ENCODER_H_
