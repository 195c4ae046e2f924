#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/gsg_encoder.h"
#include "core/parallel_trainer.h"
#include "embed/graph_embedding.h"
#include "gnn/conv.h"
#include "gnn/gru.h"
#include "gnn/hier_attention.h"
#include "gnn/linear.h"
#include "gnn/transformer.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/split.h"
#include "tensor/ops.h"

namespace dbg4eth {
namespace core {

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kDeepWalk:
      return "DeepWalk";
    case BaselineKind::kNode2Vec:
      return "Node2Vec";
    case BaselineKind::kGcnNoFeatures:
      return "GCN(w/o node feature)";
    case BaselineKind::kGcn:
      return "GCN";
    case BaselineKind::kGatNoFeatures:
      return "GAT(w/o node feature)";
    case BaselineKind::kGat:
      return "GAT";
    case BaselineKind::kGinNoFeatures:
      return "GIN(w/o node feature)";
    case BaselineKind::kGin:
      return "GIN";
    case BaselineKind::kGraphSage:
      return "GraphSAGE";
    case BaselineKind::kAppnp:
      return "APPNP";
    case BaselineKind::kGrit:
      return "GRIT";
    case BaselineKind::kTrans2Vec:
      return "Trans2Vec";
    case BaselineKind::kI2bgnnNoFeatures:
      return "I2BGNN(w/o node feature)";
    case BaselineKind::kI2bgnn:
      return "I2BGNN";
    case BaselineKind::kTsgn:
      return "TSGN";
    case BaselineKind::kEthident:
      return "Ethident";
    case BaselineKind::kTegDetector:
      return "TEGDetector";
    case BaselineKind::kBert4Eth:
      return "BERT4ETH";
  }
  return "unknown";
}

std::vector<BaselineKind> AllBaselines() {
  return {BaselineKind::kDeepWalk,        BaselineKind::kNode2Vec,
          BaselineKind::kGcnNoFeatures,   BaselineKind::kGcn,
          BaselineKind::kGatNoFeatures,   BaselineKind::kGat,
          BaselineKind::kGinNoFeatures,   BaselineKind::kGin,
          BaselineKind::kGraphSage,       BaselineKind::kAppnp,
          BaselineKind::kGrit,            BaselineKind::kTrans2Vec,
          BaselineKind::kI2bgnnNoFeatures, BaselineKind::kI2bgnn,
          BaselineKind::kTsgn,            BaselineKind::kEthident,
          BaselineKind::kTegDetector,     BaselineKind::kBert4Eth};
}

namespace {

/// Trivial input for the "w/o node feature" variants: a single constant
/// channel, as in the paper (whose featureless GNN rows sit near chance —
/// only structure reachable through aggregation remains).
Matrix TrivialFeatures(const graph::Graph& g) {
  return Matrix::Ones(g.num_nodes, 1);
}

Matrix MeanNeighborAdjacency(const graph::Graph& g) {
  Matrix adj = g.DenseAdjacency(/*symmetric=*/true, /*self_loops=*/false);
  for (int i = 0; i < adj.rows(); ++i) {
    double s = 0.0;
    for (int j = 0; j < adj.cols(); ++j) s += adj.At(i, j);
    if (s > 0) {
      for (int j = 0; j < adj.cols(); ++j) adj.At(i, j) /= s;
    }
  }
  return adj;
}

/// BERT4ETH stand-in input: the center account's transactions as a feature
/// sequence [direction, log1p(value), normalized dt, log1p(gas),
/// contract-call flag].
Matrix CenterSequence(const eth::TxSubgraph& sub, int max_length) {
  std::vector<const eth::LocalTransaction*> center_txs;
  for (const auto& tx : sub.txs) {
    if (tx.src == sub.center_index || tx.dst == sub.center_index) {
      center_txs.push_back(&tx);
    }
  }
  if (center_txs.size() > static_cast<size_t>(max_length)) {
    center_txs.erase(center_txs.begin(),
                     center_txs.end() - max_length);  // keep most recent
  }
  const int len = std::max<int>(1, static_cast<int>(center_txs.size()));
  Matrix seq(len, 5);
  if (center_txs.empty()) return seq;
  const double t0 = center_txs.front()->timestamp;
  const double span =
      std::max(center_txs.back()->timestamp - t0, 1e-9);
  for (size_t i = 0; i < center_txs.size(); ++i) {
    const auto& tx = *center_txs[i];
    seq.At(i, 0) = tx.src == sub.center_index ? 1.0 : -1.0;
    seq.At(i, 1) = std::log1p(tx.value);
    seq.At(i, 2) = (tx.timestamp - t0) / span;
    seq.At(i, 3) = std::log1p(tx.gas_used) / 15.0;
    seq.At(i, 4) = tx.is_contract_call ? 1.0 : 0.0;
  }
  return seq;
}

/// Generic per-graph trainer: forward produces 1 x 2 logits per instance.
EvaluationReport TrainGraphModel(
    const eth::SubgraphDataset& dataset, const std::vector<int>& train_idx,
    const std::vector<int>& test_idx, const std::vector<ag::Tensor>& params,
    const std::function<ag::Tensor(const eth::GraphInstance&)>& forward,
    const BaselineConfig& config, Rng* rng) {
  // Baseline forwards draw no randomness: no per-instance streams.
  EpochLoop::Objective objective;
  objective.instance = [&](int index, Rng*, std::vector<ag::Tensor>*) {
    const eth::GraphInstance& inst = dataset.instances[index];
    return ag::SoftmaxCrossEntropy(forward(inst), {inst.label});
  };
  // One instance per optimizer step, on the calling thread.
  EpochLoop loop(params, train_idx, rng,
                 {.epochs = config.epochs,
                  .learning_rate = config.learning_rate,
                  .grad_clip = 5.0},
                 std::move(objective), "baseline");
  DBG4ETH_CHECK(loop.Run().ok());
  EvaluationReport report;
  for (int idx : test_idx) {
    const eth::GraphInstance& inst = dataset.instances[idx];
    const Matrix logits = forward(inst).value();
    const Matrix probs = ag::SoftmaxRowsValue(logits);
    report.test_labels.push_back(inst.label);
    report.test_probs.push_back(probs.At(0, 1));
  }
  report.metrics = ml::ComputeBinaryMetrics(
      report.test_labels, ml::ThresholdPredictions(report.test_probs));
  report.auc = ml::RocAuc(report.test_labels, report.test_probs);
  return report;
}

/// Embedding baselines: fixed graph vectors + MLP classifier.
EvaluationReport RunEmbeddingBaseline(const eth::SubgraphDataset& dataset,
                                      const std::vector<int>& train_idx,
                                      const std::vector<int>& test_idx,
                                      embed::WalkKind kind,
                                      const BaselineConfig& config,
                                      Rng* rng) {
  embed::GraphEmbeddingConfig emb_config;
  emb_config.kind = kind;
  emb_config.walks_per_node = config.walks_per_node;
  emb_config.walk_length = config.walk_length;
  emb_config.skipgram.embedding_dim = config.embedding_dim;
  emb_config.skipgram.epochs = 1;

  const int dim = embed::GraphEmbeddingDim(emb_config);
  Matrix all_emb(dataset.num_graphs(), dim);
  for (int i = 0; i < dataset.num_graphs(); ++i) {
    const auto vec = embed::GraphEmbedding(
        dataset.instances[i].gsg, dataset.instances[i].subgraph, emb_config,
        rng);
    for (int c = 0; c < dim; ++c) all_emb.At(i, c) = vec[c];
  }
  Matrix x_train(static_cast<int>(train_idx.size()), dim);
  std::vector<int> y_train;
  for (size_t r = 0; r < train_idx.size(); ++r) {
    for (int c = 0; c < dim; ++c) {
      x_train.At(static_cast<int>(r), c) = all_emb.At(train_idx[r], c);
    }
    y_train.push_back(dataset.instances[train_idx[r]].label);
  }
  ml::MlpConfig mlp_config;
  mlp_config.hidden_dims = {config.hidden_dim};
  mlp_config.seed = config.seed;
  ml::MlpClassifier head(mlp_config);
  DBG4ETH_CHECK(head.Train(x_train, y_train).ok());

  EvaluationReport report;
  for (int idx : test_idx) {
    report.test_labels.push_back(dataset.instances[idx].label);
    report.test_probs.push_back(head.PredictProba(all_emb.RowPtr(idx)));
  }
  report.metrics = ml::ComputeBinaryMetrics(
      report.test_labels, ml::ThresholdPredictions(report.test_probs));
  report.auc = ml::RocAuc(report.test_labels, report.test_probs);
  return report;
}

/// Ethident: the hierarchical-attention GSG encoder without contrastive
/// regularization, trained standalone.
EvaluationReport RunEthident(const eth::SubgraphDataset& dataset,
                             const std::vector<int>& train_idx,
                             const std::vector<int>& test_idx,
                             const BaselineConfig& config) {
  GsgEncoderConfig enc_config;
  enc_config.hidden_dim = config.hidden_dim;
  enc_config.num_heads = config.num_heads;
  enc_config.epochs = config.epochs;
  enc_config.learning_rate = config.learning_rate;
  enc_config.use_contrastive = false;
  enc_config.seed = config.seed;
  GsgEncoder encoder(enc_config);
  DBG4ETH_CHECK(encoder.Train(dataset, train_idx).ok());

  EvaluationReport report;
  for (int idx : test_idx) {
    const eth::GraphInstance& inst = dataset.instances[idx];
    report.test_labels.push_back(inst.label);
    report.test_probs.push_back(Sigmoid(encoder.PredictScore(inst.gsg)));
  }
  report.metrics = ml::ComputeBinaryMetrics(
      report.test_labels, ml::ThresholdPredictions(report.test_probs));
  report.auc = ml::RocAuc(report.test_labels, report.test_probs);
  return report;
}

}  // namespace

Result<EvaluationReport> RunBaseline(BaselineKind kind,
                                     eth::SubgraphDataset* dataset,
                                     const BaselineConfig& config) {
  if (dataset->num_graphs() < 10) {
    return Status::InvalidArgument("dataset too small for baseline run");
  }
  Rng rng(config.seed);
  const ml::SplitIndices split = ml::StratifiedSplit(
      dataset->labels(), config.train_fraction, config.val_fraction, &rng);
  if (split.test.empty()) {
    return Status::InvalidArgument("empty test split");
  }
  eth::StandardizeDataset(dataset, split.train);
  // Baselines have no calibration stage: validation joins training.
  std::vector<int> train_idx = split.train;
  train_idx.insert(train_idx.end(), split.val.begin(), split.val.end());

  const eth::SubgraphDataset& ds = *dataset;
  const int hidden = config.hidden_dim;
  const int feat_dim =
      ds.instances.front().gsg.node_features.cols();

  switch (kind) {
    case BaselineKind::kDeepWalk:
      return RunEmbeddingBaseline(ds, train_idx, split.test,
                                  embed::WalkKind::kDeepWalk, config, &rng);
    case BaselineKind::kNode2Vec:
      return RunEmbeddingBaseline(ds, train_idx, split.test,
                                  embed::WalkKind::kNode2Vec, config, &rng);
    case BaselineKind::kTrans2Vec:
      return RunEmbeddingBaseline(ds, train_idx, split.test,
                                  embed::WalkKind::kTrans2Vec, config, &rng);
    case BaselineKind::kEthident:
      return RunEthident(ds, train_idx, split.test, config);
    default:
      break;
  }

  // Autograd graph models share the generic trainer.
  const bool with_features = kind != BaselineKind::kGcnNoFeatures &&
                             kind != BaselineKind::kGatNoFeatures &&
                             kind != BaselineKind::kGinNoFeatures &&
                             kind != BaselineKind::kI2bgnnNoFeatures;
  const int in_dim = with_features ? feat_dim : 1;
  auto node_input = [with_features](const eth::GraphInstance& inst) {
    return ag::Tensor::Constant(with_features ? inst.gsg.node_features
                                              : TrivialFeatures(inst.gsg));
  };

  std::vector<ag::Tensor> params;
  std::function<ag::Tensor(const eth::GraphInstance&)> forward;

  switch (kind) {
    case BaselineKind::kGcn:
    case BaselineKind::kGcnNoFeatures: {
      auto conv1 = std::make_shared<gnn::GcnConv>(in_dim, hidden, &rng);
      auto conv2 = std::make_shared<gnn::GcnConv>(hidden, hidden, &rng);
      auto head = std::make_shared<gnn::Linear>(hidden, 2, &rng);
      params = gnn::JoinParameters({conv1.get(), conv2.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        // CSR Â, cached once per graph and shared across epochs/threads.
        auto adj = inst.gsg.NormalizedAdjacencySparse();
        ag::Tensor h = ag::Relu(conv1->Forward(adj, node_input(inst)));
        h = ag::Relu(conv2->Forward(adj, h));
        return head->Forward(ag::MeanPoolRows(h));
      };
      break;
    }
    case BaselineKind::kGat:
    case BaselineKind::kGatNoFeatures: {
      const int per_head = std::max(1, hidden / config.num_heads);
      auto conv1 = std::make_shared<gnn::GatConv>(in_dim, per_head,
                                                  config.num_heads, &rng);
      auto conv2 = std::make_shared<gnn::GatConv>(
          per_head * config.num_heads, per_head, config.num_heads, &rng);
      auto head = std::make_shared<gnn::Linear>(per_head * config.num_heads,
                                                2, &rng);
      params = gnn::JoinParameters({conv1.get(), conv2.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        const auto support = inst.gsg.AttentionMaskSparse();
        ag::Tensor h = ag::Elu(conv1->Forward(node_input(inst), support));
        h = ag::Elu(conv2->Forward(h, support));
        return head->Forward(ag::MeanPoolRows(h));
      };
      break;
    }
    case BaselineKind::kGin:
    case BaselineKind::kGinNoFeatures: {
      auto conv1 =
          std::make_shared<gnn::GinConv>(in_dim, hidden, hidden, &rng);
      auto conv2 =
          std::make_shared<gnn::GinConv>(hidden, hidden, hidden, &rng);
      auto head = std::make_shared<gnn::Linear>(hidden, 2, &rng);
      params = gnn::JoinParameters({conv1.get(), conv2.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        ag::Tensor adj = ag::Tensor::Constant(
            inst.gsg.DenseAdjacency(true, false));
        ag::Tensor h = ag::Relu(conv1->Forward(adj, node_input(inst)));
        h = ag::Relu(conv2->Forward(adj, h));
        return head->Forward(ag::MeanPoolRows(h));
      };
      break;
    }
    case BaselineKind::kGraphSage: {
      auto conv1 = std::make_shared<gnn::SageConv>(in_dim, hidden, &rng);
      auto conv2 = std::make_shared<gnn::SageConv>(hidden, hidden, &rng);
      auto head = std::make_shared<gnn::Linear>(hidden, 2, &rng);
      params = gnn::JoinParameters({conv1.get(), conv2.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        ag::Tensor adj =
            ag::Tensor::Constant(MeanNeighborAdjacency(inst.gsg));
        ag::Tensor h = ag::Relu(conv1->Forward(adj, node_input(inst)));
        h = ag::Relu(conv2->Forward(adj, h));
        return head->Forward(ag::MeanPoolRows(h));
      };
      break;
    }
    case BaselineKind::kAppnp: {
      auto model = std::make_shared<gnn::Appnp>(in_dim, hidden, hidden,
                                                /*k_steps=*/6,
                                                /*alpha=*/0.2, &rng);
      auto head = std::make_shared<gnn::Linear>(hidden, 2, &rng);
      params = gnn::JoinParameters({model.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        // CSR Â, cached once per graph and shared across epochs/threads.
        ag::Tensor h =
            model->Forward(inst.gsg.NormalizedAdjacencySparse(),
                           node_input(inst));
        return head->Forward(ag::MeanPoolRows(h));
      };
      break;
    }
    case BaselineKind::kGrit: {
      auto model = std::make_shared<gnn::GraphTransformer>(
          in_dim, hidden, /*num_blocks=*/1, config.num_heads, 2, &rng);
      params = model->Parameters();
      forward = [=](const eth::GraphInstance& inst) {
        return model->Forward(node_input(inst),
                              inst.gsg.DenseAdjacency(true, false));
      };
      break;
    }
    case BaselineKind::kI2bgnn:
    case BaselineKind::kI2bgnnNoFeatures: {
      // I2BGNN: transaction-value-weighted propagation with max pooling.
      auto conv1 = std::make_shared<gnn::GcnConv>(in_dim, hidden, &rng);
      auto conv2 = std::make_shared<gnn::GcnConv>(hidden, hidden, &rng);
      auto head = std::make_shared<gnn::Linear>(hidden, 2, &rng);
      params = gnn::JoinParameters({conv1.get(), conv2.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        auto adj = inst.gsg.WeightedAdjacencySparse();
        ag::Tensor h = ag::Relu(conv1->Forward(adj, node_input(inst)));
        h = ag::Relu(conv2->Forward(adj, h));
        return head->Forward(ag::MaxPoolRows(h));
      };
      break;
    }
    case BaselineKind::kTsgn: {
      // TSGN approximation: edge-aggregate-enriched node inputs over the
      // value-weighted topology with a mean||max readout.
      const int tsgn_in = feat_dim + 2;
      auto conv1 = std::make_shared<gnn::GcnConv>(tsgn_in, hidden, &rng);
      auto conv2 = std::make_shared<gnn::GcnConv>(hidden, hidden, &rng);
      auto head = std::make_shared<gnn::Linear>(2 * hidden, 2, &rng);
      params = gnn::JoinParameters({conv1.get(), conv2.get(), head.get()});
      forward = [=](const eth::GraphInstance& inst) {
        ag::Tensor x =
            ag::Tensor::Constant(GsgEncoder::BuildNodeInput(inst.gsg));
        auto adj = inst.gsg.WeightedAdjacencySparse();
        ag::Tensor h = ag::Relu(conv1->Forward(adj, x));
        h = ag::Relu(conv2->Forward(adj, h));
        return head->Forward(
            ag::ConcatCols(ag::MeanPoolRows(h), ag::MaxPoolRows(h)));
      };
      break;
    }
    case BaselineKind::kTegDetector: {
      // Time slices, shared GCN, learnable time coefficients.
      auto proj = std::make_shared<gnn::Linear>(feat_dim, hidden, &rng);
      auto conv = std::make_shared<gnn::GcnConv>(hidden, hidden, &rng);
      auto head = std::make_shared<gnn::Linear>(hidden, 2, &rng);
      const int num_slices =
          static_cast<int>(ds.instances.front().ldg.size());
      auto time_coeff =
          std::make_shared<ag::Tensor>(ag::Tensor::Parameter(
              Matrix(num_slices, 1)));
      params = gnn::JoinParameters({proj.get(), conv.get(), head.get()});
      params.push_back(*time_coeff);
      forward = [=](const eth::GraphInstance& inst) {
        ag::Tensor x = ag::Tanh(proj->Forward(
            ag::Tensor::Constant(inst.ldg.front().node_features)));
        std::vector<ag::Tensor> per_slice;
        for (const graph::Graph& slice : inst.ldg) {
          per_slice.push_back(ag::MeanPoolRows(
              ag::Relu(conv->Forward(slice.WeightedAdjacencySparse(), x))));
        }
        ag::Tensor stacked = ag::ConcatRowsList(per_slice);  // T x hidden
        ag::Tensor alphas = ag::SoftmaxColVector(*time_coeff);
        return head->Forward(ag::MatMul(ag::Transpose(alphas), stacked));
      };
      break;
    }
    case BaselineKind::kBert4Eth: {
      auto model = std::make_shared<gnn::SequenceEncoder>(
          5, hidden, /*num_blocks=*/1, config.num_heads, 2, &rng);
      auto seq_len = config.sequence_length;
      params = model->Parameters();
      forward = [=](const eth::GraphInstance& inst) {
        return model->Forward(ag::Tensor::Constant(
            CenterSequence(inst.subgraph, seq_len)));
      };
      break;
    }
    default:
      return Status::Internal("unhandled baseline kind");
  }

  return TrainGraphModel(ds, train_idx, split.test, params, forward, config,
                         &rng);
}

}  // namespace core
}  // namespace dbg4eth
