#include "core/gsg_encoder.h"

#include <algorithm>
#include <cmath>

#include "augment/contrastive.h"
#include "common/logging.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace core {

namespace {

constexpr int kEdgeAggregateDim = 2;

}  // namespace

GsgEncoder::GsgEncoder(const GsgEncoderConfig& config)
    : config_(config), rng_(config.seed) {
  DBG4ETH_CHECK_GE(config.num_gat_layers, 1);
  DBG4ETH_CHECK_EQ(config.hidden_dim % config.num_heads, 0);
  const int per_head = config.hidden_dim / config.num_heads;
  align_ = std::make_unique<gnn::Linear>(
      config.node_feature_dim + kEdgeAggregateDim, config.hidden_dim, &rng_);
  for (int l = 0; l < config.num_gat_layers; ++l) {
    gat_layers_.push_back(std::make_unique<gnn::GatConv>(
        config.hidden_dim, per_head, config.num_heads, &rng_));
  }
  readout_ = std::make_unique<gnn::GraphAttentionReadout>(config.hidden_dim,
                                                          &rng_);
  head_ = std::make_unique<gnn::Linear>(config.hidden_dim,
                                        config.num_classes, &rng_);
}

Matrix GsgEncoder::BuildNodeInput(const graph::Graph& g) {
  DBG4ETH_CHECK(!g.node_features.empty());
  Matrix input(g.num_nodes, g.node_features.cols() + kEdgeAggregateDim);
  for (int v = 0; v < g.num_nodes; ++v) {
    for (int c = 0; c < g.node_features.cols(); ++c) {
      input.At(v, c) = g.node_features.At(v, c);
    }
  }
  // Incident-edge aggregates (Eq. 6's r_ij, pooled per node): log1p of the
  // summed edge value and transaction count over all incident merged edges.
  const int base = g.node_features.cols();
  for (int m = 0; m < g.num_edges(); ++m) {
    const graph::Edge& e = g.edges[m];
    const double w =
        g.edge_features.empty() ? 1.0 : g.edge_features.At(m, 0);
    const double t = g.edge_features.cols() > 1 ? g.edge_features.At(m, 1)
                                                : 1.0;
    for (int endpoint : {e.src, e.dst}) {
      input.At(endpoint, base + 0) += w;
      input.At(endpoint, base + 1) += t;
      if (e.src == e.dst) break;
    }
  }
  for (int v = 0; v < g.num_nodes; ++v) {
    input.At(v, base + 0) = std::log1p(std::max(0.0, input.At(v, base + 0)));
    input.At(v, base + 1) = std::log1p(std::max(0.0, input.At(v, base + 1)));
  }
  return input;
}

ag::Tensor GsgEncoder::EmbedGraph(const graph::Graph& g, bool training,
                                  Rng* rng) const {
  const auto support = g.AttentionMaskSparse();
  ag::Tensor h = ag::Tensor::Constant(BuildNodeInput(g));
  // Eq. 6: linear alignment + LeakyReLU.
  h = ag::LeakyRelu(align_->Forward(h));
  for (const auto& gat : gat_layers_) {
    h = ag::Elu(gat->Forward(h, support));
    if (training && config_.dropout > 0.0) {
      h = ag::Dropout(h, config_.dropout, rng, training);
    }
  }
  return readout_->Forward(h);
}

ag::Tensor GsgEncoder::Logits(const ag::Tensor& embedding) const {
  return head_->Forward(embedding);
}

double GsgEncoder::PredictScore(const graph::Graph& g) const {
  // The eval path never draws randomness (Dropout is a no-op when
  // !training); passing nullptr keeps inference free of the mutable
  // training RNG so concurrent PredictScore calls are race-free.
  const Matrix logits =
      Logits(EmbedGraph(g, /*training=*/false, /*rng=*/nullptr)).value();
  return logits.At(0, 1) - logits.At(0, 0);
}

std::vector<ag::Tensor> GsgEncoder::Parameters() const {
  std::vector<ag::Tensor> params = align_->Parameters();
  for (const auto& gat : gat_layers_) {
    for (const auto& p : gat->Parameters()) params.push_back(p);
  }
  for (const auto& p : readout_->Parameters()) params.push_back(p);
  for (const auto& p : head_->Parameters()) params.push_back(p);
  return params;
}

namespace {

/// Per instance, softmax cross-entropy on the graph and, with the
/// contrastive term on, the embeddings of two augmented views; over the
/// batch, the weighted NT-Xent loss between those views.
EpochLoop::Objective TrainObjective(const GsgEncoder* enc,
                                    const eth::SubgraphDataset* dataset) {
  EpochLoop::Objective objective;
  objective.draws_randomness = true;  // Dropout masks, augmentation draws.
  objective.instance = [enc, dataset](int index, Rng* rng,
                                      std::vector<ag::Tensor>* views) {
    const GsgEncoderConfig& config = enc->config();
    const eth::GraphInstance& inst = dataset->instances[index];
    ag::Tensor emb = enc->EmbedGraph(inst.gsg, /*training=*/true, rng);
    ag::Tensor loss = ag::SoftmaxCrossEntropy(enc->Logits(emb), {inst.label});
    if (config.use_contrastive) {
      const graph::Graph v1 =
          augment::AugmentGraph(inst.gsg, config.view1, rng);
      const graph::Graph v2 =
          augment::AugmentGraph(inst.gsg, config.view2, rng);
      views->push_back(enc->EmbedGraph(v1, /*training=*/true, rng));
      views->push_back(enc->EmbedGraph(v2, /*training=*/true, rng));
    }
    return loss;
  };
  if (enc->config().use_contrastive) {
    // NT-Xent needs at least two graphs in the batch for negatives.
    objective.batch = [enc](const std::vector<std::vector<ag::Tensor>>& views) {
      if (views.size() < 2) return ag::Tensor();
      std::vector<ag::Tensor> z1, z2;
      for (const std::vector<ag::Tensor>& pair : views) {
        z1.push_back(pair[0]);
        z2.push_back(pair[1]);
      }
      const GsgEncoderConfig& config = enc->config();
      return ag::ScalarMul(
          augment::NtXentLoss(ag::ConcatRowsList(z1), ag::ConcatRowsList(z2),
                              config.temperature),
          config.contrastive_weight);
    };
  }
  return objective;
}

}  // namespace

GsgEncoder::TrainSession::TrainSession(GsgEncoder* encoder,
                                       const eth::SubgraphDataset* dataset,
                                       std::vector<int> train_indices)
    : EpochLoop(encoder->Parameters(), std::move(train_indices),
                &encoder->rng_,
                {.epochs = encoder->config_.epochs,
                 .learning_rate = encoder->config_.learning_rate,
                 .batch_size = encoder->config_.batch_size,
                 .grad_clip = encoder->config_.grad_clip,
                 .num_threads = encoder->config_.num_threads},
                TrainObjective(encoder, dataset), "gsg") {}

Status GsgEncoder::ValidateTrainingInputs(
    const eth::SubgraphDataset& dataset,
    const std::vector<int>& train_indices) const {
  (void)dataset;
  if (train_indices.empty()) {
    return Status::InvalidArgument("empty training split");
  }
  return Status::OK();
}

Status GsgEncoder::Train(const eth::SubgraphDataset& dataset,
                         const std::vector<int>& train_indices) {
  DBG4ETH_RETURN_NOT_OK(ValidateTrainingInputs(dataset, train_indices));
  return TrainSession(this, &dataset, train_indices).Run();
}

}  // namespace core
}  // namespace dbg4eth
