#include "ml/mlp.h"

#include <algorithm>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/serialize.h"

namespace dbg4eth {
namespace ml {

MlpClassifier::MlpClassifier(const MlpConfig& config) : config_(config) {}

ag::Tensor MlpClassifier::ForwardLogits(const ag::Tensor& x) const {
  ag::Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = ag::Relu(h);
  }
  return h;
}

Status MlpClassifier::Train(const Matrix& x, const std::vector<int>& y) {
  DBG4ETH_RETURN_NOT_OK(ValidateTrainingData(x, y));
  input_dim_ = x.cols();
  Rng rng(config_.seed);
  layers_.clear();
  int prev = input_dim_;
  for (int h : config_.hidden_dims) {
    layers_.push_back(std::make_unique<gnn::Linear>(prev, h, &rng));
    prev = h;
  }
  layers_.push_back(std::make_unique<gnn::Linear>(prev, 2, &rng));

  std::vector<ag::Tensor> params;
  for (const auto& layer : layers_) {
    for (const auto& p : layer->Parameters()) params.push_back(p);
  }
  ag::Adam opt(params, config_.learning_rate, 0.9, 0.999, 1e-8,
               config_.weight_decay);
  ag::Tensor input = ag::Tensor::Constant(x);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    opt.ZeroGrad();
    ag::Tensor loss = ag::SoftmaxCrossEntropy(ForwardLogits(input), y);
    loss.Backward();
    opt.Step();
  }
  return Status::OK();
}

void MlpClassifier::Save(BinaryWriter* writer) const {
  writer->WriteString("mlp");
  writer->WriteI32(input_dim_);
  writer->WriteIntVector(config_.hidden_dims);
  std::vector<ag::Tensor> params;
  for (const auto& layer : layers_) {
    for (const auto& p : layer->Parameters()) params.push_back(p);
  }
  ag::WriteParameters(writer, params);
}

Status MlpClassifier::Load(BinaryReader* reader, int num_features) {
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag("mlp"));
  int32_t input_dim = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&input_dim));
  DBG4ETH_RETURN_NOT_OK(reader->ReadIntVector(&config_.hidden_dims));
  // The layers below are allocated from these sizes before the weights
  // that would disprove a corrupt one are read.
  const auto in_range = [](int width) {
    return width >= 1 && width <= BinaryReader::kMaxLayerWidth;
  };
  if (!in_range(input_dim) || input_dim != num_features ||
      config_.hidden_dims.size() >
          static_cast<size_t>(BinaryReader::kMaxLayers) ||
      !std::all_of(config_.hidden_dims.begin(), config_.hidden_dims.end(),
                   in_range)) {
    return Status::Internal("corrupt checkpoint: MLP sizes out of range");
  }
  input_dim_ = input_dim;
  // Rebuild the architecture, then overwrite the weights.
  Rng rng(config_.seed);
  layers_.clear();
  int prev = input_dim_;
  for (int h : config_.hidden_dims) {
    layers_.push_back(std::make_unique<gnn::Linear>(prev, h, &rng));
    prev = h;
  }
  layers_.push_back(std::make_unique<gnn::Linear>(prev, 2, &rng));
  std::vector<ag::Tensor> params;
  for (const auto& layer : layers_) {
    for (const auto& p : layer->Parameters()) params.push_back(p);
  }
  return ag::ReadParameters(reader, &params);
}

double MlpClassifier::PredictProba(const double* row) const {
  Matrix m(1, input_dim_);
  for (int c = 0; c < input_dim_; ++c) m.At(0, c) = row[c];
  const Matrix logits = ForwardLogits(ag::Tensor::Constant(m)).value();
  const Matrix probs = ag::SoftmaxRowsValue(logits);
  return probs.At(0, 1);
}

}  // namespace ml
}  // namespace dbg4eth
