#include "core/ldg_encoder.h"

#include <algorithm>

#include "common/logging.h"
#include "core/parallel_trainer.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace dbg4eth {
namespace core {

namespace {

obs::Histogram* TrainHistogram(const char* name, const char* help) {
  return obs::MetricsRegistry::Global()->HistogramAt(name, help,
                                                     {{"encoder", "ldg"}});
}

}  // namespace

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

LdgEncoder::TrainSession::TrainSession(LdgEncoder* encoder,
                                       const eth::SubgraphDataset* dataset,
                                       std::vector<int> train_indices)
    : encoder_(encoder),
      dataset_(dataset),
      order_(std::move(train_indices)),
      opt_(encoder->Parameters(), encoder->config_.learning_rate),
      pool_(MakeTrainerPool(ResolveNumThreads(encoder->config_.num_threads))) {
}

LdgEncoder::TrainSession::~TrainSession() = default;

bool LdgEncoder::TrainSession::done() const {
  return epoch_ >= encoder_->config_.epochs;
}

Status LdgEncoder::TrainSession::RunEpoch() {
  LdgEncoder& enc = *encoder_;
  const LdgEncoderConfig& config = enc.config_;
  const eth::SubgraphDataset& dataset = *dataset_;
  const size_t batch_size = static_cast<size_t>(std::max(1, config.batch_size));

  // Timing only observes the loop; shuffles, forks and reduction order are
  // untouched, so determinism guarantees hold.
  static obs::Histogram* epoch_hist = TrainHistogram(
      "train_epoch_us", "Wall time of one training epoch by encoder");
  static obs::Histogram* forward_hist = TrainHistogram(
      "train_forward_us", "Per-instance forward-pass wall time by encoder");
  static obs::Histogram* backward_hist = TrainHistogram(
      "train_backward_us", "Per-instance backward-pass wall time by encoder");
  static obs::Histogram* step_hist = TrainHistogram(
      "train_step_us",
      "Optimizer clip+step wall time per batch by encoder");
  static obs::Counter* epochs_total = obs::MetricsRegistry::Global()->CounterAt(
      "train_epochs_total", "Completed training epochs by encoder",
      {{"encoder", "ldg"}});

  obs::ScopedTimer epoch_timer(epoch_hist);
  enc.rng_.Shuffle(&order_);
  for (size_t start = 0; start < order_.size(); start += batch_size) {
    const size_t end = std::min(order_.size(), start + batch_size);
    const int batch_count = static_cast<int>(end - start);
    opt_.ZeroGrad();
    // The LDG forward pass draws no randomness, so instances need no
    // forked RNG streams; the batch mean gradient is reduced in instance
    // order (thread-count independent). batch_size=1 reproduces the
    // original per-instance SGD bit-for-bit.
    ParallelBatchBackward(
        pool_.get(), batch_count,
        [&](int bi, ag::GradientBuffer* buffer) {
          const eth::GraphInstance& inst =
              dataset.instances[order_[start + bi]];
          obs::ScopedTimer forward_timer(forward_hist);
          ag::Tensor loss = ag::SoftmaxCrossEntropy(
              enc.Logits(enc.EmbedSlices(inst.ldg)), {inst.label});
          if (batch_count > 1) {
            loss = ag::ScalarMul(loss, 1.0 / batch_count);
          }
          forward_timer.Stop();
          obs::ScopedTimer backward_timer(backward_hist);
          loss.Backward(buffer);
        });
    obs::ScopedTimer step_timer(step_hist);
    opt_.ClipGradNorm(config.grad_clip);
    opt_.Step();
  }
  ++epoch_;
  epochs_total->Inc();
  return Status::OK();
}

void LdgEncoder::TrainSession::SaveState(BinaryWriter* writer) const {
  writer->WriteString("ldg_train_session");
  writer->WriteU32(static_cast<uint32_t>(epoch_));
  writer->WriteIntVector(order_);
  WriteRngState(writer, encoder_->rng_);
  opt_.SaveState(writer);
}

Status LdgEncoder::TrainSession::LoadState(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("ldg_train_session"));
  uint32_t epoch = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&epoch));
  if (static_cast<int>(epoch) > encoder_->config_.epochs) {
    return Status::InvalidArgument(
        "LDG training session snapshot is ahead of the configured epochs");
  }
  std::vector<int> order;
  DBG4ETH_RETURN_NOT_OK(reader->ReadIntVector(&order));
  if (order.size() != order_.size()) {
    return Status::InvalidArgument(
        "LDG training session snapshot covers a different index count");
  }
  // Stage the RNG so a corrupt tail cannot leave the session
  // half-restored.
  Rng staged(0);
  DBG4ETH_RETURN_NOT_OK(ReadRngState(reader, &staged));
  DBG4ETH_RETURN_NOT_OK(opt_.LoadState(reader));
  encoder_->rng_.SetState(staged.State());
  order_ = std::move(order);
  epoch_ = static_cast<int>(epoch);
  return Status::OK();
}

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
  TrainSession session(this, &dataset, train_indices);
  while (!session.done()) {
    DBG4ETH_RETURN_NOT_OK(session.RunEpoch());
  }
  return Status::OK();
}

}  // namespace core
}  // namespace dbg4eth
