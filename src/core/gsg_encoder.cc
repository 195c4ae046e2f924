#include "core/gsg_encoder.h"

#include <algorithm>
#include <cmath>

#include "augment/contrastive.h"
#include "common/logging.h"
#include "core/parallel_trainer.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace dbg4eth {
namespace core {

namespace {

constexpr int kEdgeAggregateDim = 2;

obs::Histogram* TrainHistogram(const char* name, const char* help) {
  return obs::MetricsRegistry::Global()->HistogramAt(name, help,
                                                     {{"encoder", "gsg"}});
}

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

GsgEncoder::TrainSession::TrainSession(GsgEncoder* encoder,
                                       const eth::SubgraphDataset* dataset,
                                       std::vector<int> train_indices)
    : encoder_(encoder),
      dataset_(dataset),
      order_(std::move(train_indices)),
      opt_(encoder->Parameters(), encoder->config_.learning_rate),
      pool_(MakeTrainerPool(ResolveNumThreads(encoder->config_.num_threads))) {
}

GsgEncoder::TrainSession::~TrainSession() = default;

bool GsgEncoder::TrainSession::done() const {
  return epoch_ >= encoder_->config_.epochs;
}

Status GsgEncoder::TrainSession::RunEpoch() {
  GsgEncoder& enc = *encoder_;
  const GsgEncoderConfig& config = enc.config_;
  const eth::SubgraphDataset& dataset = *dataset_;

  // Timing only observes the loop — it draws no randomness and reorders
  // nothing, so the bit-identical determinism guarantees are untouched.
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
      {{"encoder", "gsg"}});

  obs::ScopedTimer epoch_timer(epoch_hist);
  enc.rng_.Shuffle(&order_);
  for (size_t start = 0; start < order_.size(); start += config.batch_size) {
    const size_t end = std::min(order_.size(), start + config.batch_size);
    const int batch_count = static_cast<int>(end - start);
    opt_.ZeroGrad();

    // One RNG per instance, forked from the trainer stream on this
    // thread in instance order: the randomness each instance sees
    // (dropout masks, augmentation draws) does not depend on the thread
    // count or on scheduling.
    std::vector<Rng> rngs;
    rngs.reserve(batch_count);
    for (int bi = 0; bi < batch_count; ++bi) rngs.push_back(enc.rng_.Fork());

    // Per-instance slots for the contrastive view embeddings; the tapes
    // built on worker threads stay alive until the NT-Xent backward
    // below.
    std::vector<ag::Tensor> view1_embs(batch_count);
    std::vector<ag::Tensor> view2_embs(batch_count);

    // Classification term: each instance backwards its 1/B-scaled loss
    // into a private gradient buffer (same mean-loss gradient as the
    // seed's sum-then-scale, accumulated per instance).
    ParallelBatchBackward(
        pool_.get(), batch_count,
        [&](int bi, ag::GradientBuffer* buffer) {
          const eth::GraphInstance& inst =
              dataset.instances[order_[start + bi]];
          Rng* rng = &rngs[bi];
          obs::ScopedTimer forward_timer(forward_hist);
          ag::Tensor emb = enc.EmbedGraph(inst.gsg, /*training=*/true, rng);
          ag::Tensor loss =
              ag::SoftmaxCrossEntropy(enc.Logits(emb), {inst.label});
          ag::Tensor scaled = ag::ScalarMul(loss, 1.0 / batch_count);
          forward_timer.Stop();
          {
            obs::ScopedTimer backward_timer(backward_hist);
            scaled.Backward(buffer);
          }
          if (config.use_contrastive) {
            const graph::Graph v1 =
                augment::AugmentGraph(inst.gsg, config.view1, rng);
            const graph::Graph v2 =
                augment::AugmentGraph(inst.gsg, config.view2, rng);
            view1_embs[bi] = enc.EmbedGraph(v1, /*training=*/true, rng);
            view2_embs[bi] = enc.EmbedGraph(v2, /*training=*/true, rng);
          }
        });

    // NT-Xent couples all views of the batch, so it runs (and backwards,
    // unbuffered) on this thread after the join. It needs at least two
    // graphs in the batch to have negatives.
    if (config.use_contrastive && batch_count >= 2) {
      ag::Tensor z1 = ag::ConcatRowsList(view1_embs);
      ag::Tensor z2 = ag::ConcatRowsList(view2_embs);
      ag::Tensor contrastive =
          augment::NtXentLoss(z1, z2, config.temperature);
      ag::ScalarMul(contrastive, config.contrastive_weight).Backward();
    }
    obs::ScopedTimer step_timer(step_hist);
    opt_.ClipGradNorm(config.grad_clip);
    opt_.Step();
  }
  ++epoch_;
  epochs_total->Inc();
  return Status::OK();
}

void GsgEncoder::TrainSession::SaveState(BinaryWriter* writer) const {
  writer->WriteString("gsg_train_session");
  writer->WriteU32(static_cast<uint32_t>(epoch_));
  writer->WriteIntVector(order_);
  WriteRngState(writer, encoder_->rng_);
  opt_.SaveState(writer);
}

Status GsgEncoder::TrainSession::LoadState(BinaryReader* reader) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("gsg_train_session"));
  uint32_t epoch = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&epoch));
  if (static_cast<int>(epoch) > encoder_->config_.epochs) {
    return Status::InvalidArgument(
        "GSG training session snapshot is ahead of the configured epochs");
  }
  std::vector<int> order;
  DBG4ETH_RETURN_NOT_OK(reader->ReadIntVector(&order));
  if (order.size() != order_.size()) {
    return Status::InvalidArgument(
        "GSG training session snapshot covers a different index count");
  }
  // Stage the RNG so a corrupt tail (e.g. mismatched optimizer state)
  // cannot leave the session half-restored.
  Rng staged(0);
  DBG4ETH_RETURN_NOT_OK(ReadRngState(reader, &staged));
  DBG4ETH_RETURN_NOT_OK(opt_.LoadState(reader));
  encoder_->rng_.SetState(staged.State());
  order_ = std::move(order);
  epoch_ = static_cast<int>(epoch);
  return Status::OK();
}

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
  TrainSession session(this, &dataset, train_indices);
  while (!session.done()) {
    DBG4ETH_RETURN_NOT_OK(session.RunEpoch());
  }
  return Status::OK();
}

}  // namespace core
}  // namespace dbg4eth
