#include "core/ldg_encoder.h"

#include <algorithm>

#include "common/logging.h"
#include "tensor/inference.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace core {

LdgEncoder::LdgEncoder(const LdgEncoderConfig& config)
    : config_(config), rng_(config.seed) {
  DBG4ETH_CHECK_GE(config.num_time_slices, 1);
  DBG4ETH_CHECK_GE(config.num_pooling_layers, 1);
  DBG4ETH_CHECK_LE(config.num_pooling_layers, 3);
  input_proj_ = std::make_unique<gnn::Linear>(config.node_feature_dim,
                                              config.hidden_dim, &rng_);
  topo_gcn_ = std::make_unique<gnn::GcnConv>(config.hidden_dim,
                                             config.hidden_dim, &rng_);
  gru_ = std::make_unique<gnn::GruCell>(config.hidden_dim, &rng_);
  // Pooling pyramid: first_level_clusters, then quarters, ending at 1.
  int clusters = config.first_level_clusters;
  for (int level = 0; level < config.num_pooling_layers; ++level) {
    const bool last = level + 1 == config.num_pooling_layers;
    const int c = last ? 1 : std::max(2, clusters);
    pools_.push_back(
        std::make_unique<gnn::DiffPool>(config.hidden_dim, c, &rng_));
    clusters = std::max(2, clusters / 4);
  }
  slice_weights_ =
      ag::Tensor::Parameter(Matrix(config.num_time_slices, 1));
  head_ = std::make_unique<gnn::Linear>(config.hidden_dim,
                                        config.num_classes, &rng_);
}

ag::Tensor LdgEncoder::EmbedSlices(
    const std::vector<graph::Graph>& slices) const {
  DBG4ETH_CHECK_EQ(static_cast<int>(slices.size()), config_.num_time_slices);
  DBG4ETH_CHECK(!slices.empty());
  DBG4ETH_CHECK(!slices[0].node_features.empty());

  // h_0: projected node features.
  ag::Tensor h = ag::Tanh(input_proj_->Forward(
      ag::Tensor::Constant(slices[0].node_features)));

  std::vector<ag::Tensor> pooled_per_slice;
  pooled_per_slice.reserve(slices.size());
  for (const graph::Graph& slice : slices) {
    // Eq. 14: U_t = GCN(h_{t-1}, A_t) on the value-weighted slice topology.
    // The slice adjacency is a constant, so message passing runs on the
    // cached CSR form (bit-identical to the dense product).
    const auto adj = slice.WeightedAdjacencySparse();
    ag::Tensor u_t = ag::Relu(topo_gcn_->Forward(adj, h));
    // Eq. 15-18: evolutionary update.
    h = gru_->Forward(u_t, h);

    // Eq. 19-21: DiffPool pyramid down to one node for this slice. The
    // first level pools the constant sparse adjacency; deeper levels pool
    // the differentiable dense output of the previous level.
    gnn::DiffPool::Output pooled = pools_.front()->Forward(adj, h);
    for (size_t level = 1; level < pools_.size(); ++level) {
      pooled = pools_[level]->Forward(pooled.adjacency, pooled.features);
    }
    pooled_per_slice.push_back(pooled.features);  // 1 x hidden
  }

  // Eq. 22: adaptive time-slice weights.
  ag::Tensor alphas = ag::SoftmaxColVector(slice_weights_);  // T x 1
  ag::Tensor stacked = ag::ConcatRowsList(pooled_per_slice);  // T x hidden
  return ag::MatMul(ag::Transpose(alphas), stacked);          // 1 x hidden
}

ag::Tensor LdgEncoder::Logits(const ag::Tensor& embedding) const {
  // Eq. 23 applies a ReLU-gated linear map before classification.
  return head_->Forward(ag::Relu(embedding));
}

double LdgEncoder::PredictScore(
    const std::vector<graph::Graph>& slices) const {
  // Tape-free, as GsgEncoder::PredictScore.
  ag::InferenceScope scope;
  const Matrix logits = Logits(EmbedSlices(slices)).value();
  return logits.At(0, 1) - logits.At(0, 0);
}

std::vector<ag::Tensor> LdgEncoder::Parameters() const {
  std::vector<ag::Tensor> params = input_proj_->Parameters();
  for (const auto& p : topo_gcn_->Parameters()) params.push_back(p);
  for (const auto& p : gru_->Parameters()) params.push_back(p);
  for (const auto& pool : pools_) {
    for (const auto& p : pool->Parameters()) params.push_back(p);
  }
  params.push_back(slice_weights_);
  for (const auto& p : head_->Parameters()) params.push_back(p);
  return params;
}

namespace {

/// Softmax cross-entropy of one instance's slice sequence. The forward pass
/// draws no randomness, so no per-instance streams are forked.
EpochLoop::Objective TrainObjective(const LdgEncoder* enc,
                                    const eth::SubgraphDataset* dataset) {
  EpochLoop::Objective objective;
  objective.instance = [enc, dataset](int index, Rng*,
                                      std::vector<ag::Tensor>*) {
    const eth::GraphInstance& inst = dataset->instances[index];
    return ag::SoftmaxCrossEntropy(enc->Logits(enc->EmbedSlices(inst.ldg)),
                                   {inst.label});
  };
  return objective;
}

}  // namespace

LdgEncoder::TrainSession::TrainSession(LdgEncoder* encoder,
                                       const eth::SubgraphDataset* dataset,
                                       std::vector<int> train_indices)
    : EpochLoop(encoder->Parameters(), std::move(train_indices),
                &encoder->rng_,
                {.epochs = encoder->config_.epochs,
                 .learning_rate = encoder->config_.learning_rate,
                 .batch_size = encoder->config_.batch_size,
                 .grad_clip = encoder->config_.grad_clip,
                 .num_threads = encoder->config_.num_threads},
                TrainObjective(encoder, dataset), "ldg") {}

Status LdgEncoder::ValidateTrainingInputs(
    const eth::SubgraphDataset& dataset,
    const std::vector<int>& train_indices) const {
  if (train_indices.empty()) {
    return Status::InvalidArgument("empty training split");
  }
  for (int idx : train_indices) {
    if (static_cast<int>(dataset.instances[idx].ldg.size()) !=
        config_.num_time_slices) {
      return Status::InvalidArgument(
          "dataset time slices do not match encoder configuration");
    }
  }
  return Status::OK();
}

Status LdgEncoder::Train(const eth::SubgraphDataset& dataset,
                         const std::vector<int>& train_indices) {
  DBG4ETH_RETURN_NOT_OK(ValidateTrainingInputs(dataset, train_indices));
  return TrainSession(this, &dataset, train_indices).Run();
}

}  // namespace core
}  // namespace dbg4eth
