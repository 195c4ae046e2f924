#ifndef DBG4ETH_CORE_DBG4ETH_H_
#define DBG4ETH_CORE_DBG4ETH_H_

#include <memory>
#include <vector>

#include "calib/adaptive.h"
#include "common/checkpoint_store.h"
#include "common/result.h"
#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "eth/dataset.h"
#include "ml/classifier.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/split.h"

namespace dbg4eth {
namespace core {

/// Classifier head choices of the paper's Fig. 7 / Table IV.
enum class HeadKind { kLightGbm, kXgboost, kMlp, kRandomForest, kAdaBoost };

const char* HeadKindName(HeadKind kind);

/// \brief End-to-end DBG4ETH configuration. The boolean toggles implement
/// every Table IV ablation row.
struct Dbg4EthConfig {
  GsgEncoderConfig gsg;
  LdgEncoderConfig ldg;
  calib::AdaptiveCalibratorConfig calibration;

  bool use_gsg = true;          ///< false = "w/o GSG".
  bool use_ldg = true;          ///< false = "w/o LDG".
  bool use_calibration = true;  ///< false = "w/o calibration".
  /// When true (default) the branch encoders train on train+val — the same
  /// data budget the baselines get — while calibration and the head are
  /// still fitted on the validation split. Set false for a strictly
  /// held-out calibration protocol.
  bool encoders_use_validation = true;
  HeadKind head = HeadKind::kLightGbm;  ///< kMlp = "w/o LightGBM".
  ml::GbdtConfig gbdt;

  double train_fraction = 0.6;
  double val_fraction = 0.2;
  uint64_t seed = 7;
};

/// Outcome of a budgeted resumable training call.
enum class TrainProgress {
  kComplete,   ///< All stages finished; the model is ready to serve.
  kPreempted,  ///< Epoch budget ran out; state was snapshotted for resume.
};

/// \brief Durability and preemption knobs for resumable training.
struct TrainSnapshotOptions {
  /// Destination of the durable TrainState snapshots (model parameters,
  /// optimizer moments, RNG streams, shuffle orders, split indices).
  /// Null disables snapshotting — plain uninterruptible training.
  CheckpointStore* store = nullptr;
  /// Snapshot cadence, counted in completed encoder epochs (GSG and LDG
  /// epochs both count). Values < 1 behave as 1.
  int snapshot_every_epochs = 1;
  /// Preemption budget: once this many epochs have run in THIS call, the
  /// loop snapshots and returns kPreempted at the epoch boundary — a
  /// fixed-allocation (SLURM-style) stop, taken even when the budgeted
  /// epoch was the last one (the follow-up ResumeTrain then only re-runs
  /// the cheap deterministic post-encoder stages). <= 0 means unlimited.
  int max_epochs_this_run = 0;
};

/// \brief Evaluation output of one train/evaluate run.
struct EvaluationReport {
  ml::BinaryMetrics metrics;
  double auc = 0.0;
  std::vector<int> test_labels;
  std::vector<double> test_probs;
  /// Adaptive calibration introspection per branch (empty when the branch
  /// or calibration is disabled) — the data behind Fig. 6.
  std::vector<calib::AdaptiveCalibrator::MethodInfo> gsg_calibration;
  std::vector<calib::AdaptiveCalibrator::MethodInfo> ldg_calibration;
};

/// \brief The double-graph de-anonymization model (paper Sec. IV).
///
/// Pipeline: GSG + LDG branch encoders -> confidence generation (z-scored
/// branch scores through a sigmoid) -> adaptive six-method calibration per
/// branch (Eq. 24-25) -> LightGBM on the calibrated pair.
class Dbg4Eth {
 public:
  explicit Dbg4Eth(const Dbg4EthConfig& config);

  Dbg4Eth(const Dbg4Eth&) = delete;
  Dbg4Eth& operator=(const Dbg4Eth&) = delete;

  /// Trains encoders on the train split, fits calibrators and the head on
  /// the validation split. The dataset is standardized in place using the
  /// train split statistics. Equivalent to TrainWithSnapshots with default
  /// options (no snapshots, unlimited budget).
  Status Train(eth::SubgraphDataset* dataset, const ml::SplitIndices& split);

  /// \brief Crash-safe training: the Train pipeline run as a resumable
  /// epoch loop.
  ///
  /// Every `snapshot_every_epochs` completed encoder epochs (and always at
  /// a preemption stop) a versioned TrainState frame — model parameters,
  /// Adam moments and step counts, each encoder's full RNG stream, the
  /// cumulative shuffle orders, the epoch indices, the split and the
  /// feature normalizer — is committed durably through `options.store`.
  /// A run killed at ANY epoch boundary and continued with ResumeTrain
  /// produces a model bit-identical to an uninterrupted Train, for both
  /// the sequential and data-parallel (num_threads > 1) trainers.
  Result<TrainProgress> TrainWithSnapshots(eth::SubgraphDataset* dataset,
                                           const ml::SplitIndices& split,
                                           const TrainSnapshotOptions& options);

  /// \brief Continues a preempted TrainWithSnapshots run from the newest
  /// valid snapshot in `options.store` (corrupt newest generations are
  /// skipped).
  ///
  /// `dataset` must be the same dataset in its RAW form, exactly as it was
  /// first passed to TrainWithSnapshots (after a crash the dataset is
  /// re-materialized fresh); it is standardized here with the snapshot's
  /// restored statistics, not refit. The model must be configured exactly
  /// as the preempted run (validated against the snapshot; only
  /// num_threads may differ — the trainers are bit-identical for every
  /// thread count). The split is restored from the snapshot.
  Result<TrainProgress> ResumeTrain(eth::SubgraphDataset* dataset,
                                    const TrainSnapshotOptions& options);

  /// P(target class) for one instance. Requires Train. The instance must
  /// carry node features standardized with this model's statistics —
  /// dataset instances passed to Train already are; instances materialized
  /// elsewhere must go through Normalize first.
  double PredictProba(const eth::GraphInstance& instance) const;

  /// PredictProba(*instances[i]) for every instance, in order. Requires
  /// Train and normalized instances, same as PredictProba.
  std::vector<double> PredictProbaBatch(
      const std::vector<const eth::GraphInstance*>& instances) const;

  /// Standardizes a freshly materialized instance (raw log-scaled
  /// features) with the train-split feature statistics so PredictProba can
  /// score it. Requires Train.
  void Normalize(eth::GraphInstance* instance) const;

  /// Writes the full trained model (config, encoders, scalers, calibrators,
  /// normalizer, classifier head) to a binary checkpoint. Requires Train.
  /// The stream is framed (magic, format version, payload length, CRC32
  /// trailer — see common/checkpoint_store.h) so Load can reject truncated
  /// or bit-flipped checkpoints before parsing.
  Status Save(std::ostream* os) const;

  /// Restores a model saved with Save; the result is ready for
  /// PredictProba / Evaluate without retraining. Corruption of the frame
  /// returns kDataLoss and an unframed stream kInvalidArgument; a payload
  /// with sizes, counts or tree links out of range returns an error.
  static Result<std::unique_ptr<Dbg4Eth>> Load(std::istream* is);

  /// Metrics over the given instances.
  EvaluationReport Evaluate(const eth::SubgraphDataset& dataset,
                            const std::vector<int>& indices) const;

  /// Convenience: stratified split + Train + Evaluate on the test split.
  Result<EvaluationReport> TrainAndEvaluate(eth::SubgraphDataset* dataset);

  /// Trains an alternative classifier head on `val_indices` (branch
  /// encoders and calibrators unchanged) and evaluates it on
  /// `test_indices` — the Fig. 7 classifier comparison. Requires Train.
  Result<EvaluationReport> EvaluateWithHead(
      HeadKind kind, const eth::SubgraphDataset& dataset,
      const std::vector<int>& val_indices,
      const std::vector<int>& test_indices) const;

  const Dbg4EthConfig& config() const { return config_; }

 private:
  /// The checkpoint payload: Save frames what SaveRaw writes, and Load
  /// parses a validated frame's payload with LoadRaw.
  Status SaveRaw(std::ostream* os) const;
  static Result<std::unique_ptr<Dbg4Eth>> LoadRaw(std::istream* is);

  /// The epoch-granular training loop behind Train / TrainWithSnapshots /
  /// ResumeTrain. When `resume` is non-null it is positioned at the
  /// per-encoder state of a TrainState frame and restored before looping.
  Result<TrainProgress> RunTrainLoop(eth::SubgraphDataset* dataset,
                                     const ml::SplitIndices& split,
                                     const TrainSnapshotOptions& options,
                                     BinaryReader* resume);

  /// Serializes one TrainState frame (see TrainWithSnapshots).
  Status WriteTrainState(
      std::ostream* os, const ml::SplitIndices& split,
      const std::vector<std::unique_ptr<EpochLoop>>& sessions) const;

  struct BranchScaler {
    double mean = 0.0;
    double stddev = 1.0;
    double ToConfidence(double score) const;
  };

  double BranchConfidenceGsg(const eth::GraphInstance& inst) const;
  double BranchConfidenceLdg(const eth::GraphInstance& inst) const;
  /// GBDT config with the leaf-size floor adapted to `num_samples` so tiny
  /// validation splits still produce a non-degenerate head.
  ml::GbdtConfig AdjustedGbdt(int num_samples) const;
  /// Head feature row for one instance (calibrated branch probabilities).
  std::vector<double> HeadFeatures(const eth::GraphInstance& inst) const;

  Dbg4EthConfig config_;
  features::FeatureNormalizer normalizer_;
  std::unique_ptr<GsgEncoder> gsg_;
  std::unique_ptr<LdgEncoder> ldg_;
  BranchScaler gsg_scaler_;
  BranchScaler ldg_scaler_;
  std::unique_ptr<calib::AdaptiveCalibrator> gsg_calibrator_;
  std::unique_ptr<calib::AdaptiveCalibrator> ldg_calibrator_;
  std::unique_ptr<ml::BinaryClassifier> head_;
  bool trained_ = false;
};

/// Instantiates a classifier head.
std::unique_ptr<ml::BinaryClassifier> MakeHead(HeadKind kind,
                                               const ml::GbdtConfig& gbdt);

}  // namespace core
}  // namespace dbg4eth

#endif  // DBG4ETH_CORE_DBG4ETH_H_
