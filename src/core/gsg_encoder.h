#ifndef DBG4ETH_CORE_GSG_ENCODER_H_
#define DBG4ETH_CORE_GSG_ENCODER_H_

#include <memory>
#include <vector>

#include "augment/augmentation.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/parallel_trainer.h"
#include "eth/dataset.h"
#include "gnn/conv.h"
#include "gnn/hier_attention.h"
#include "gnn/linear.h"
#include "graph/graph.h"

namespace dbg4eth {
namespace core {

/// \brief Configuration of the global static account transaction encoding
/// module (paper Sec. IV-A).
struct GsgEncoderConfig {
  int node_feature_dim = 15;
  /// Edge aggregate channels fused into each node input (log1p of incident
  /// total value and transaction count), implementing Eq. 6's [x || r].
  int hidden_dim = 32;
  int num_gat_layers = 2;   ///< Paper: 2-layer GAT.
  int num_heads = 2;
  int num_classes = 2;
  double dropout = 0.1;

  /// Contrastive regularization (graph contrastive learning with adaptive
  /// augmentation). Paper view parameters: P_f = {0.1, 0.0},
  /// P_e = {0.3, 0.4}.
  bool use_contrastive = true;
  double contrastive_weight = 0.3;
  double temperature = 0.5;
  augment::AugmentationConfig view1 = {.edge_drop_prob = 0.3,
                                       .feature_mask_prob = 0.1};
  augment::AugmentationConfig view2 = {.edge_drop_prob = 0.4,
                                       .feature_mask_prob = 0.0};

  int epochs = 10;
  double learning_rate = 0.01;
  int batch_size = 16;
  double grad_clip = 5.0;
  uint64_t seed = 1;

  /// Worker threads for intra-batch data parallelism (instances of a batch
  /// run forward+backward concurrently; gradients are reduced in instance
  /// order, so results are identical for every value). 0 = one per
  /// hardware thread. Not part of the checkpoint format.
  int num_threads = 1;
};

/// \brief GSG encoder: node feature alignment (Eq. 6), a stack of GAT
/// layers (node-level attention, Eq. 7-9), a graph-level attention readout
/// (Eq. 10-13), and a linear classification head. Trained with softmax
/// cross-entropy plus an NT-Xent contrastive term over two adaptively
/// augmented views.
class GsgEncoder {
 public:
  explicit GsgEncoder(const GsgEncoderConfig& config);

  GsgEncoder(const GsgEncoder&) = delete;
  GsgEncoder& operator=(const GsgEncoder&) = delete;

  /// Node input matrix: standardized node features concatenated with
  /// log-scaled incident-edge aggregates ([x_j || r_ij] of Eq. 6).
  static Matrix BuildNodeInput(const graph::Graph& g);

  /// Embeds one graph into a 1 x hidden_dim representation.
  ag::Tensor EmbedGraph(const graph::Graph& g, bool training, Rng* rng) const;

  /// Classification logits (1 x num_classes) of a graph embedding.
  ag::Tensor Logits(const ag::Tensor& embedding) const;

  /// Branch prediction score for a graph: logit(positive) - logit(negative).
  double PredictScore(const graph::Graph& g) const;

  /// \brief Epoch-granular resumable training session: the shared
  /// EpochLoop bound to this encoder's objective — softmax cross-entropy
  /// per instance plus, over each batch, the weighted NT-Xent term between
  /// two augmented views of every graph. Dropout and augmentation draw
  /// from per-instance streams forked off the encoder's RNG.
  class TrainSession : public EpochLoop {
   public:
    /// The session trains `encoder` on `dataset` instances listed by
    /// `train_indices`. Both pointees must outlive the session.
    TrainSession(GsgEncoder* encoder, const eth::SubgraphDataset* dataset,
                 std::vector<int> train_indices);
  };

  /// Checks that `train_indices` can train this encoder (non-empty).
  Status ValidateTrainingInputs(const eth::SubgraphDataset& dataset,
                                const std::vector<int>& train_indices) const;

  /// Trains on the instances listed by `train_indices` (a TrainSession run
  /// start to finish).
  Status Train(const eth::SubgraphDataset& dataset,
               const std::vector<int>& train_indices);

  std::vector<ag::Tensor> Parameters() const;

  const GsgEncoderConfig& config() const { return config_; }

 private:
  GsgEncoderConfig config_;
  mutable Rng rng_;
  std::unique_ptr<gnn::Linear> align_;  ///< Eq. 6 feature alignment.
  std::vector<std::unique_ptr<gnn::GatConv>> gat_layers_;
  std::unique_ptr<gnn::GraphAttentionReadout> readout_;
  std::unique_ptr<gnn::Linear> head_;
};

}  // namespace core
}  // namespace dbg4eth

#endif  // DBG4ETH_CORE_GSG_ENCODER_H_
