#ifndef DBG4ETH_CORE_PARALLEL_TRAINER_H_
#define DBG4ETH_CORE_PARALLEL_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace dbg4eth {
namespace core {

/// Worker pool for a trainer configured with `num_threads` (already
/// resolved via ResolveNumThreads). Returns null for num_threads <= 1 — the
/// serial path needs no pool. The pool holds num_threads - 1 workers
/// because ParallelFor's calling thread participates in the loop.
std::unique_ptr<ThreadPool> MakeTrainerPool(int num_threads);

/// \brief Intra-batch data parallelism for the gradient-descent trainers.
///
/// Runs `body(bi, buffer)` for every instance bi of the batch, fanned out
/// over `pool` (inline when null). `body` builds the instance's forward
/// pass and calls `loss.Backward(buffer)`, so each worker accumulates leaf
/// (parameter) gradients into its private GradientBuffer; afterwards the
/// buffers are reduced into the shared parameter gradients in instance
/// order on the calling thread.
///
/// Determinism: because each instance's gradient is accumulated privately
/// and the reduction order is fixed, the summed gradient is bit-identical
/// for every thread count (given per-instance RNG streams — fork them from
/// the trainer RNG on the calling thread before fanning out). `body` must
/// only touch per-instance state besides the (read-only) shared parameters.
void ParallelBatchBackward(
    ThreadPool* pool, int batch_count,
    const std::function<void(int, ag::GradientBuffer*)>& body);

/// \brief The resumable mini-batch Adam schedule of every gradient-descent
/// trainer in core: the GSG and LDG branch encoders and the Table III graph
/// baselines.
///
/// Each epoch shuffles the instance order with the trainer's RNG — the
/// shuffle permutes the previous epoch's order, so the order is state that
/// the RNG alone cannot re-derive — and then, per batch of B instances:
///  1. forks one RNG per instance from that stream, on this thread in
///     instance order, when the objective draws randomness;
///  2. evaluates every instance's loss over the trainer pool and backwards
///     it, scaled by 1/B, into a private gradient buffer; the buffers are
///     reduced in instance order (ParallelBatchBackward);
///  3. backwards the objective's batch-coupled term, if any, unbuffered;
///  4. clips the global gradient norm and takes one Adam step.
/// The trained parameters are therefore bit-identical for every thread
/// count. Training can stop at any epoch boundary, SaveState, and continue
/// in a fresh process bit-identically to an uninterrupted run.
///
/// Every epoch books `train_{epoch,forward,backward,step}_us` and
/// `train_epochs_total` under the label `encoder=<name>`.
class EpochLoop {
 public:
  /// The hyperparameters of the schedule, as the trainer's config sets
  /// them. A batch size below 1 acts as 1.
  struct Schedule {
    int epochs = 0;
    double learning_rate = 0.0;
    int batch_size = 1;
    double grad_clip = 0.0;
    int num_threads = 1;  ///< 0 = one per hardware thread.
  };

  /// The loss being minimized.
  struct Objective {
    /// Loss (1 x 1) of dataset instance `index`. Runs on a trainer thread,
    /// so it may touch only per-instance state besides the shared
    /// parameters. `rng` is the instance's own stream when
    /// `draws_randomness`, null otherwise. Tensors appended to `coupled`
    /// are kept for `batch`.
    std::function<ag::Tensor(int index, Rng* rng,
                             std::vector<ag::Tensor>* coupled)>
        instance;
    bool draws_randomness = false;
    /// Optional batch-coupled term over every instance's `coupled`
    /// tensors, in instance order. Built and backwarded on the calling
    /// thread after the reduction; an undefined tensor adds nothing.
    std::function<ag::Tensor(
        const std::vector<std::vector<ag::Tensor>>& coupled)>
        batch;
  };

  /// Trains `params` on the dataset instances listed by `indices`. `rng`
  /// (the shuffle and fork stream) must outlive the loop. `name` labels
  /// the instruments and tags the snapshot ("<name>_train_session").
  EpochLoop(std::vector<ag::Tensor> params, std::vector<int> indices,
            Rng* rng, const Schedule& schedule, Objective objective,
            const std::string& name);
  virtual ~EpochLoop();

  EpochLoop(const EpochLoop&) = delete;
  EpochLoop& operator=(const EpochLoop&) = delete;

  /// Runs one epoch: shuffle, then one clipped Adam step per batch.
  Status RunEpoch();

  /// Runs the remaining epochs.
  Status Run();

  /// True once the scheduled number of epochs has completed.
  bool done() const { return epoch_ >= schedule_.epochs; }

  /// Completed epochs.
  int epoch() const { return epoch_; }

  /// Serializes everything a bit-identical resume needs: the parameter
  /// values, then the tagged session state (epoch index, shuffle order, the
  /// RNG and the optimizer moments).
  void SaveState(BinaryWriter* writer) const;

  /// Restores state written by SaveState. The loop must be built over
  /// identically shaped parameters and an equally long index list;
  /// mismatches and corrupt streams return an error and leave the loop and
  /// its parameters untouched.
  Status LoadState(BinaryReader* reader);

 private:
  const Schedule schedule_;
  const Objective objective_;
  const std::string name_;
  Rng* rng_;
  std::vector<int> order_;
  ag::Adam opt_;
  std::unique_ptr<ThreadPool> pool_;
  int epoch_ = 0;
};

}  // namespace core
}  // namespace dbg4eth

#endif  // DBG4ETH_CORE_PARALLEL_TRAINER_H_
