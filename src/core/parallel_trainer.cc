#include "core/parallel_trainer.h"

#include <algorithm>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace dbg4eth {
namespace core {

std::unique_ptr<ThreadPool> MakeTrainerPool(int num_threads) {
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads - 1);
}

void ParallelBatchBackward(
    ThreadPool* pool, int batch_count,
    const std::function<void(int, ag::GradientBuffer*)>& body) {
  if (batch_count <= 0) return;
  std::vector<ag::GradientBuffer> buffers(batch_count);
  ParallelFor(pool, batch_count,
              [&](int bi) { body(bi, &buffers[bi]); });
  static obs::Histogram* reduce_hist =
      obs::MetricsRegistry::Global()->HistogramAt(
          "train_grad_reduce_us",
          "Wall time of the serial per-batch gradient reduction");
  obs::ScopedTimer reduce_timer(reduce_hist);
  // Fixed reduction order = thread-count-independent gradients.
  for (ag::GradientBuffer& buffer : buffers) {
    buffer.ReduceInto();
  }
}

EpochLoop::EpochLoop(std::vector<ag::Tensor> params, std::vector<int> indices,
                     Rng* rng, const Schedule& schedule, Objective objective,
                     const std::string& name)
    : schedule_(schedule),
      objective_(std::move(objective)),
      name_(name),
      rng_(rng),
      order_(std::move(indices)),
      opt_(std::move(params), schedule.learning_rate),
      pool_(MakeTrainerPool(ResolveNumThreads(schedule.num_threads))) {}

EpochLoop::~EpochLoop() = default;

Status EpochLoop::RunEpoch() {
  // Timing only observes the loop — it draws no randomness and reorders
  // nothing, so the bit-identical determinism guarantees are untouched.
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  const obs::LabelSet encoder = {{"encoder", name_}};
  obs::ScopedTimer epoch_timer(registry->HistogramAt(
      "train_epoch_us", "Wall time of one training epoch by encoder",
      encoder));
  obs::Histogram* forward_hist = registry->HistogramAt(
      "train_forward_us", "Per-instance forward-pass wall time by encoder",
      encoder);
  obs::Histogram* backward_hist = registry->HistogramAt(
      "train_backward_us", "Per-instance backward-pass wall time by encoder",
      encoder);
  obs::Histogram* step_hist = registry->HistogramAt(
      "train_step_us", "Optimizer clip+step wall time per batch by encoder",
      encoder);
  obs::Counter* epochs_total = registry->CounterAt(
      "train_epochs_total", "Completed training epochs by encoder", encoder);
  const size_t batch_size =
      static_cast<size_t>(std::max(1, schedule_.batch_size));
  rng_->Shuffle(&order_);
  for (size_t start = 0; start < order_.size(); start += batch_size) {
    const int count =
        static_cast<int>(std::min(batch_size, order_.size() - start));
    opt_.ZeroGrad();

    // One RNG per instance, forked from the trainer stream on this thread
    // in instance order: the randomness each instance sees (dropout masks,
    // augmentation draws) does not depend on the thread count or on
    // scheduling.
    std::vector<Rng> rngs;
    if (objective_.draws_randomness) {
      rngs.reserve(count);
      for (int bi = 0; bi < count; ++bi) rngs.push_back(rng_->Fork());
    }

    // Each instance backwards its 1/B-scaled loss into a private gradient
    // buffer: the gradient of the batch mean, accumulated per instance. At
    // B = 1 the scale is skipped; multiplying by 1.0 is exact anyway. The
    // tapes of the coupled tensors stay alive for the batch term.
    std::vector<std::vector<ag::Tensor>> coupled(count);
    ParallelBatchBackward(
        pool_.get(), count, [&](int bi, ag::GradientBuffer* buffer) {
          obs::ScopedTimer forward_timer(forward_hist);
          ag::Tensor loss = objective_.instance(
              order_[start + bi], rngs.empty() ? nullptr : &rngs[bi],
              &coupled[bi]);
          if (count > 1) loss = ag::ScalarMul(loss, 1.0 / count);
          forward_timer.Stop();
          obs::ScopedTimer backward_timer(backward_hist);
          loss.Backward(buffer);
        });

    if (objective_.batch) {
      ag::Tensor term = objective_.batch(coupled);
      if (term.defined()) term.Backward();
    }
    obs::ScopedTimer step_timer(step_hist);
    opt_.ClipGradNorm(schedule_.grad_clip);
    opt_.Step();
  }
  ++epoch_;
  epochs_total->Inc();
  return Status::OK();
}

Status EpochLoop::Run() {
  while (!done()) {
    DBG4ETH_RETURN_NOT_OK(RunEpoch());
  }
  return Status::OK();
}

void EpochLoop::SaveState(BinaryWriter* writer) const {
  ag::WriteParameters(writer, opt_.params());
  writer->WriteString(name_ + "_train_session");
  writer->WriteU32(static_cast<uint32_t>(epoch_));
  writer->WriteIntVector(order_);
  WriteRngState(writer, *rng_);
  opt_.SaveState(writer);
}

Status EpochLoop::LoadState(BinaryReader* reader) {
  // Everything is read into staging first, so a corrupt tail (e.g. a
  // mismatched optimizer state) cannot leave the loop half-restored.
  std::vector<ag::Tensor> values;
  for (const ag::Tensor& p : opt_.params()) {
    values.push_back(ag::Tensor::Constant(Matrix(p.rows(), p.cols())));
  }
  DBG4ETH_RETURN_NOT_OK(ag::ReadParameters(reader, &values));
  DBG4ETH_RETURN_NOT_OK(reader->ExpectTag(name_ + "_train_session"));
  uint32_t epoch = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&epoch));
  if (epoch > static_cast<uint32_t>(std::max(0, schedule_.epochs))) {
    return Status::InvalidArgument(
        StrFormat("%s training snapshot is ahead of the configured epochs",
                  name_.c_str()));
  }
  std::vector<int> order;
  DBG4ETH_RETURN_NOT_OK(reader->ReadIntVector(&order));
  // The objective indexes the dataset with every entry unchecked, so the
  // restored order must be a shuffle of this session's own index list.
  std::vector<int> restored = order, indices = order_;
  std::sort(restored.begin(), restored.end());
  std::sort(indices.begin(), indices.end());
  if (restored != indices) {
    return Status::InvalidArgument(StrFormat(
        "%s training snapshot order is not a permutation of the session's "
        "instance indices",
        name_.c_str()));
  }
  Rng staged(0);
  DBG4ETH_RETURN_NOT_OK(ReadRngState(reader, &staged));
  DBG4ETH_RETURN_NOT_OK(opt_.LoadState(reader));
  std::vector<ag::Tensor> params = opt_.params();
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = std::move(values[i].mutable_value());
  }
  rng_->SetState(staged.State());
  order_ = std::move(order);
  epoch_ = static_cast<int>(epoch);
  return Status::OK();
}

}  // namespace core
}  // namespace dbg4eth
