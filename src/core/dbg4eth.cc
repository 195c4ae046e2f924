#include "core/dbg4eth.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/checkpoint_store.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/serialize.h"
#include "ml/ensemble.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/inference.h"
#include "tensor/serialize.h"

namespace dbg4eth {
namespace core {

const char* HeadKindName(HeadKind kind) {
  switch (kind) {
    case HeadKind::kLightGbm:
      return "lightgbm";
    case HeadKind::kXgboost:
      return "xgboost";
    case HeadKind::kMlp:
      return "mlp";
    case HeadKind::kRandomForest:
      return "random_forest";
    case HeadKind::kAdaBoost:
      return "adaboost";
  }
  return "unknown";
}

std::unique_ptr<ml::BinaryClassifier> MakeHead(HeadKind kind,
                                               const ml::GbdtConfig& gbdt) {
  switch (kind) {
    case HeadKind::kLightGbm:
      return std::make_unique<ml::GbdtClassifier>(gbdt);
    case HeadKind::kXgboost:
      return std::make_unique<ml::GbdtClassifier>(
          ml::GbdtClassifier::XgboostStyle(gbdt));
    case HeadKind::kMlp: {
      ml::MlpConfig config;
      config.hidden_dims = {16};
      return std::make_unique<ml::MlpClassifier>(config);
    }
    case HeadKind::kRandomForest:
      return std::make_unique<ml::RandomForestClassifier>();
    case HeadKind::kAdaBoost:
      return std::make_unique<ml::AdaBoostClassifier>();
  }
  return nullptr;
}

double Dbg4Eth::BranchScaler::ToConfidence(double score) const {
  return Sigmoid((score - mean) / stddev);
}

Dbg4Eth::Dbg4Eth(const Dbg4EthConfig& config) : config_(config) {
  DBG4ETH_CHECK(config.use_gsg || config.use_ldg)
      << "at least one branch must be enabled";
}

double Dbg4Eth::BranchConfidenceGsg(const eth::GraphInstance& inst) const {
  return gsg_scaler_.ToConfidence(gsg_->PredictScore(inst.gsg));
}

double Dbg4Eth::BranchConfidenceLdg(const eth::GraphInstance& inst) const {
  return ldg_scaler_.ToConfidence(ldg_->PredictScore(inst.ldg));
}

std::vector<double> Dbg4Eth::HeadFeatures(
    const eth::GraphInstance& inst) const {
  // Spans mark the per-branch pipeline stages; under a serving-side
  // score_cold root they form the cold-request timing tree.
  std::vector<double> features;
  if (config_.use_gsg) {
    obs::TraceSpan gsg_span("gsg_forward");
    double p = BranchConfidenceGsg(inst);
    gsg_span.End();
    if (config_.use_calibration) {
      obs::TraceSpan calibrate_span("calibrate");
      p = gsg_calibrator_->Calibrate(p);
    }
    features.push_back(p);
  }
  if (config_.use_ldg) {
    obs::TraceSpan ldg_span("ldg_forward");
    double p = BranchConfidenceLdg(inst);
    ldg_span.End();
    if (config_.use_calibration) {
      obs::TraceSpan calibrate_span("calibrate");
      p = ldg_calibrator_->Calibrate(p);
    }
    features.push_back(p);
  }
  return features;
}

Status Dbg4Eth::Train(eth::SubgraphDataset* dataset,
                      const ml::SplitIndices& split) {
  TrainSnapshotOptions options;  // No store, no budget: plain training.
  DBG4ETH_ASSIGN_OR_RETURN(const TrainProgress progress,
                           TrainWithSnapshots(dataset, split, options));
  DBG4ETH_CHECK(progress == TrainProgress::kComplete);
  return Status::OK();
}

Result<TrainProgress> Dbg4Eth::TrainWithSnapshots(
    eth::SubgraphDataset* dataset, const ml::SplitIndices& split,
    const TrainSnapshotOptions& options) {
  if (split.train.empty() || split.val.empty()) {
    return Status::InvalidArgument("train and val splits must be non-empty");
  }
  eth::StandardizeDataset(dataset, split.train, &normalizer_);
  return RunTrainLoop(dataset, split, options, /*resume=*/nullptr);
}

Result<TrainProgress> Dbg4Eth::RunTrainLoop(eth::SubgraphDataset* dataset,
                                            const ml::SplitIndices& split,
                                            const TrainSnapshotOptions& options,
                                            BinaryReader* resume) {
  // Stage 2: branch encoders, driven epoch by epoch through their
  // TrainSessions so the loop can snapshot durably and stop at every
  // epoch boundary.
  std::vector<int> encoder_indices = split.train;
  if (config_.encoders_use_validation) {
    encoder_indices.insert(encoder_indices.end(), split.val.begin(),
                           split.val.end());
  }
  // One session per enabled branch, GSG first: the order of their epochs
  // and of their states in a TrainState frame.
  std::vector<std::unique_ptr<EpochLoop>> sessions;
  if (config_.use_gsg) {
    gsg_ = std::make_unique<GsgEncoder>(config_.gsg);
    DBG4ETH_RETURN_NOT_OK(
        gsg_->ValidateTrainingInputs(*dataset, encoder_indices));
    sessions.push_back(std::make_unique<GsgEncoder::TrainSession>(
        gsg_.get(), dataset, encoder_indices));
  }
  if (config_.use_ldg) {
    if (!dataset->instances.empty()) {
      // Keep the stored config in sync with the dataset's slicing so
      // checkpoints reconstruct the exact architecture.
      config_.ldg.num_time_slices =
          static_cast<int>(dataset->instances.front().ldg.size());
    }
    ldg_ = std::make_unique<LdgEncoder>(config_.ldg);
    DBG4ETH_RETURN_NOT_OK(
        ldg_->ValidateTrainingInputs(*dataset, encoder_indices));
    sessions.push_back(std::make_unique<LdgEncoder::TrainSession>(
        ldg_.get(), dataset, encoder_indices));
  }
  if (resume != nullptr) {
    // Overwrite the freshly initialized parameters and session state with
    // the snapshot; the RNG streams come along, so the first resumed epoch
    // draws exactly what the next uninterrupted epoch would have drawn.
    for (const auto& session : sessions) {
      DBG4ETH_RETURN_NOT_OK(session->LoadState(resume));
    }
    DBG4ETH_RETURN_NOT_OK(resume->ExpectTag("end"));
  }

  static obs::Counter* snapshots_total =
      obs::MetricsRegistry::Global()->CounterAt(
          "train_snapshots_total",
          "Durable TrainState snapshots committed by the training loop");

  int epochs_this_run = 0;
  // Runs after every completed epoch: maybe snapshot, then report whether
  // the per-run budget forces a preemption stop.
  auto epoch_boundary = [&]() -> Result<bool> {
    ++epochs_this_run;
    const bool preempt = options.max_epochs_this_run > 0 &&
                         epochs_this_run >= options.max_epochs_this_run;
    if (options.store != nullptr) {
      int total_done = 0;
      for (const auto& session : sessions) total_done += session->epoch();
      const int cadence = std::max(1, options.snapshot_every_epochs);
      if (preempt || total_done % cadence == 0) {
        DBG4ETH_ASSIGN_OR_RETURN(
            const std::string path,
            options.store->Save([&](std::ostream* os) {
              return WriteTrainState(os, split, sessions);
            }));
        (void)path;
        snapshots_total->Inc();
      }
    }
    DBG4ETH_FAIL_POINT("train.epoch_end");
    return preempt;
  };

  for (const auto& session : sessions) {
    while (!session->done()) {
      DBG4ETH_RETURN_NOT_OK(session->RunEpoch());
      DBG4ETH_ASSIGN_OR_RETURN(const bool preempt, epoch_boundary());
      if (preempt) return TrainProgress::kPreempted;
    }
  }

  // Stage 3a: confidence generation — scale raw branch scores by their
  // validation mean/stddev and squash into [0, 1].
  std::vector<int> val_labels;
  std::vector<double> gsg_scores, ldg_scores;
  for (int idx : split.val) {
    const eth::GraphInstance& inst = dataset->instances[idx];
    val_labels.push_back(inst.label);
    if (config_.use_gsg) gsg_scores.push_back(gsg_->PredictScore(inst.gsg));
    if (config_.use_ldg) ldg_scores.push_back(ldg_->PredictScore(inst.ldg));
  }
  // A diverged encoder, or one resumed from a TrainState holding
  // non-finite weights, scores NaN or inf. The calibrators and the head
  // bin their inputs into table indices, so stop with a Status first.
  for (const std::vector<double>* scores : {&gsg_scores, &ldg_scores}) {
    if (!std::all_of(scores->begin(), scores->end(),
                     [](double s) { return std::isfinite(s); })) {
      return Status::Internal(
          "branch encoder scores a validation instance non-finite; "
          "training diverged");
    }
  }
  auto fit_scaler = [](const std::vector<double>& scores) {
    BranchScaler scaler;
    scaler.mean = Mean(scores);
    scaler.stddev = std::max(StdDev(scores), 1e-6);
    return scaler;
  };
  if (config_.use_gsg) gsg_scaler_ = fit_scaler(gsg_scores);
  if (config_.use_ldg) ldg_scaler_ = fit_scaler(ldg_scores);

  // Stage 3b: adaptive confidence calibration per branch on validation.
  if (config_.use_calibration) {
    if (config_.use_gsg) {
      std::vector<double> conf;
      for (double s : gsg_scores) conf.push_back(gsg_scaler_.ToConfidence(s));
      gsg_calibrator_ =
          std::make_unique<calib::AdaptiveCalibrator>(config_.calibration);
      DBG4ETH_RETURN_NOT_OK(gsg_calibrator_->Fit(conf, val_labels));
    }
    if (config_.use_ldg) {
      std::vector<double> conf;
      for (double s : ldg_scores) conf.push_back(ldg_scaler_.ToConfidence(s));
      ldg_calibrator_ =
          std::make_unique<calib::AdaptiveCalibrator>(config_.calibration);
      DBG4ETH_RETURN_NOT_OK(ldg_calibrator_->Fit(conf, val_labels));
    }
  }

  // Stage 4: classifier head on the calibrated features of the validation
  // AND train splits — validation alone is far too small at account-
  // identification scale for the tree-based heads to find stable splits.
  std::vector<int> head_indices = split.val;
  head_indices.insert(head_indices.end(), split.train.begin(),
                      split.train.end());
  head_ = MakeHead(config_.head,
                   AdjustedGbdt(static_cast<int>(head_indices.size())));
  trained_ = true;  // HeadFeatures needs the branch state set up above.
  Matrix head_x(static_cast<int>(head_indices.size()),
                (config_.use_gsg ? 1 : 0) + (config_.use_ldg ? 1 : 0));
  std::vector<int> head_labels;
  for (size_t r = 0; r < head_indices.size(); ++r) {
    const auto features = HeadFeatures(dataset->instances[head_indices[r]]);
    for (size_t c = 0; c < features.size(); ++c) {
      head_x.At(static_cast<int>(r), static_cast<int>(c)) = features[c];
    }
    head_labels.push_back(dataset->instances[head_indices[r]].label);
  }
  Status head_status = head_->Train(head_x, head_labels);
  if (!head_status.ok()) {
    trained_ = false;
    return head_status;
  }
  return TrainProgress::kComplete;
}

ml::GbdtConfig Dbg4Eth::AdjustedGbdt(int num_samples) const {
  ml::GbdtConfig gbdt = config_.gbdt;
  gbdt.tree.min_samples_leaf = std::min(
      gbdt.tree.min_samples_leaf, std::max(2, num_samples / 6));
  return gbdt;
}

double Dbg4Eth::PredictProba(const eth::GraphInstance& instance) const {
  DBG4ETH_CHECK(trained_);
  // Prediction never needs gradients, so the branch forwards run tape-free
  // on the thread-local arena (a no-op if a scope is already bound).
  ag::InferenceScope scope;
  const auto features = HeadFeatures(instance);
  obs::TraceSpan head_span("gbdt");
  return head_->PredictProba(features.data());
}

std::vector<double> Dbg4Eth::PredictProbaBatch(
    const std::vector<const eth::GraphInstance*>& instances) const {
  // No outer InferenceScope: each PredictProba binds its own, so every
  // instance gets a fresh arena pass sized for its subgraph alone.
  std::vector<double> probs;
  probs.reserve(instances.size());
  for (const eth::GraphInstance* instance : instances) {
    DBG4ETH_CHECK(instance != nullptr);
    probs.push_back(PredictProba(*instance));
  }
  return probs;
}

void Dbg4Eth::Normalize(eth::GraphInstance* instance) const {
  DBG4ETH_CHECK(trained_);
  eth::StandardizeInstance(normalizer_, instance);
}

EvaluationReport Dbg4Eth::Evaluate(const eth::SubgraphDataset& dataset,
                                   const std::vector<int>& indices) const {
  DBG4ETH_CHECK(trained_);
  EvaluationReport report;
  for (int idx : indices) {
    report.test_labels.push_back(dataset.instances[idx].label);
    report.test_probs.push_back(PredictProba(dataset.instances[idx]));
  }
  report.metrics = ml::ComputeBinaryMetrics(
      report.test_labels, ml::ThresholdPredictions(report.test_probs));
  report.auc = ml::RocAuc(report.test_labels, report.test_probs);
  if (gsg_calibrator_) report.gsg_calibration = gsg_calibrator_->methods();
  if (ldg_calibrator_) report.ldg_calibration = ldg_calibrator_->methods();
  return report;
}

namespace {

constexpr uint32_t kCheckpointVersion = 1;

void WriteAugConfig(BinaryWriter* w, const augment::AugmentationConfig& c) {
  w->WriteDouble(c.edge_drop_prob);
  w->WriteDouble(c.feature_mask_prob);
  w->WriteI32(static_cast<int32_t>(c.measure));
  w->WriteDouble(c.max_prob);
}

Status ReadAugConfig(BinaryReader* r, augment::AugmentationConfig* c) {
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->edge_drop_prob));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->feature_mask_prob));
  int32_t measure = 0;
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&measure));
  c->measure = static_cast<graph::CentralityMeasure>(measure);
  return r->ReadDouble(&c->max_prob);
}

void WriteConfig(BinaryWriter* w, const Dbg4EthConfig& c) {
  w->WriteString("dbg4eth_config");
  // GSG encoder.
  w->WriteI32(c.gsg.node_feature_dim);
  w->WriteI32(c.gsg.hidden_dim);
  w->WriteI32(c.gsg.num_gat_layers);
  w->WriteI32(c.gsg.num_heads);
  w->WriteI32(c.gsg.num_classes);
  w->WriteDouble(c.gsg.dropout);
  w->WriteBool(c.gsg.use_contrastive);
  w->WriteDouble(c.gsg.contrastive_weight);
  w->WriteDouble(c.gsg.temperature);
  WriteAugConfig(w, c.gsg.view1);
  WriteAugConfig(w, c.gsg.view2);
  w->WriteU64(c.gsg.seed);
  // LDG encoder.
  w->WriteI32(c.ldg.node_feature_dim);
  w->WriteI32(c.ldg.hidden_dim);
  w->WriteI32(c.ldg.num_time_slices);
  w->WriteI32(c.ldg.num_pooling_layers);
  w->WriteI32(c.ldg.first_level_clusters);
  w->WriteI32(c.ldg.num_classes);
  w->WriteU64(c.ldg.seed);
  // Pipeline toggles.
  w->WriteBool(c.use_gsg);
  w->WriteBool(c.use_ldg);
  w->WriteBool(c.use_calibration);
  w->WriteI32(static_cast<int32_t>(c.head));
  w->WriteU64(c.seed);
}

/// Rejects an architecture block that the encoder, head or Dbg4Eth
/// constructors would abort on, that would allocate before the weights that
/// disprove it are read, or whose encoders could not score the features
/// MaterializeInstance computes. `head` is the head kind as stored.
Status CheckArchitecture(const Dbg4EthConfig& c, int32_t head) {
  const auto in = [](int value, int limit) {
    return value >= 1 && value <= limit;
  };
  const int w = BinaryReader::kMaxLayerWidth;
  const bool gsg_ok =
      c.gsg.node_feature_dim == features::kNumFeatures &&
      in(c.gsg.hidden_dim, w) &&
      in(c.gsg.num_gat_layers, BinaryReader::kMaxLayers) &&
      in(c.gsg.num_heads, c.gsg.hidden_dim) &&
      c.gsg.hidden_dim % c.gsg.num_heads == 0 && in(c.gsg.num_classes, w);
  const bool ldg_ok =
      c.ldg.node_feature_dim == features::kNumFeatures &&
      in(c.ldg.hidden_dim, w) &&
      in(c.ldg.num_time_slices, w) && in(c.ldg.num_pooling_layers, 3) &&
      in(c.ldg.first_level_clusters, w) && in(c.ldg.num_classes, w);
  const bool head_ok = head >= static_cast<int32_t>(HeadKind::kLightGbm) &&
                       head <= static_cast<int32_t>(HeadKind::kAdaBoost);
  if (!(c.use_gsg || c.use_ldg) || (c.use_gsg && !gsg_ok) ||
      (c.use_ldg && !ldg_ok) || !head_ok) {
    return Status::Internal(
        "corrupt checkpoint: architecture out of range (feature width, "
        "layer sizes, head kind, or both branches off)");
  }
  return Status::OK();
}

Status ReadConfig(BinaryReader* r, Dbg4EthConfig* c) {
  DBG4ETH_RETURN_NOT_OK(r->ExpectTag("dbg4eth_config"));
  int32_t i = 0;
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.node_feature_dim));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.hidden_dim));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.num_gat_layers));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.num_heads));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.num_classes));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->gsg.dropout));
  DBG4ETH_RETURN_NOT_OK(r->ReadBool(&c->gsg.use_contrastive));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->gsg.contrastive_weight));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->gsg.temperature));
  DBG4ETH_RETURN_NOT_OK(ReadAugConfig(r, &c->gsg.view1));
  DBG4ETH_RETURN_NOT_OK(ReadAugConfig(r, &c->gsg.view2));
  DBG4ETH_RETURN_NOT_OK(r->ReadU64(&c->gsg.seed));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.node_feature_dim));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.hidden_dim));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.num_time_slices));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.num_pooling_layers));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.first_level_clusters));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.num_classes));
  DBG4ETH_RETURN_NOT_OK(r->ReadU64(&c->ldg.seed));
  DBG4ETH_RETURN_NOT_OK(r->ReadBool(&c->use_gsg));
  DBG4ETH_RETURN_NOT_OK(r->ReadBool(&c->use_ldg));
  DBG4ETH_RETURN_NOT_OK(r->ReadBool(&c->use_calibration));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&i));
  c->head = static_cast<HeadKind>(i);
  DBG4ETH_RETURN_NOT_OK(r->ReadU64(&c->seed));
  return CheckArchitecture(*c, i);
}

constexpr uint32_t kTrainStateVersion = 1;

/// Training hyperparameters that shape the epoch loop but are not part of
/// the serving checkpoint's architecture block. A TrainState records them
/// so a resume under a different schedule is rejected instead of silently
/// diverging. num_threads is deliberately absent: the data-parallel
/// trainers are bit-identical for every thread count.
void WriteTrainHparams(BinaryWriter* w, const Dbg4EthConfig& c) {
  w->WriteString("train_hparams");
  w->WriteI32(c.gsg.epochs);
  w->WriteDouble(c.gsg.learning_rate);
  w->WriteI32(c.gsg.batch_size);
  w->WriteDouble(c.gsg.grad_clip);
  w->WriteI32(c.ldg.epochs);
  w->WriteDouble(c.ldg.learning_rate);
  w->WriteI32(c.ldg.batch_size);
  w->WriteDouble(c.ldg.grad_clip);
  w->WriteBool(c.encoders_use_validation);
}

Status ReadTrainHparams(BinaryReader* r, Dbg4EthConfig* c) {
  DBG4ETH_RETURN_NOT_OK(r->ExpectTag("train_hparams"));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.epochs));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->gsg.learning_rate));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->gsg.batch_size));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->gsg.grad_clip));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.epochs));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->ldg.learning_rate));
  DBG4ETH_RETURN_NOT_OK(r->ReadI32(&c->ldg.batch_size));
  DBG4ETH_RETURN_NOT_OK(r->ReadDouble(&c->ldg.grad_clip));
  return r->ReadBool(&c->encoders_use_validation);
}

/// The bytes a TrainState records of a config: architecture, augmentation
/// views, toggles and epoch-loop hyperparameters. Comparing them compares
/// every recorded field, doubles by bit pattern.
std::string ResumeFingerprint(const Dbg4EthConfig& c) {
  std::ostringstream os;
  BinaryWriter writer(&os);
  WriteConfig(&writer, c);
  WriteTrainHparams(&writer, c);
  return os.str();
}

Status CheckResumeCompatible(const Dbg4EthConfig& live,
                             const Dbg4EthConfig& snap) {
  if (ResumeFingerprint(live) != ResumeFingerprint(snap)) {
    return Status::InvalidArgument(
        "training snapshot was taken under a different model or training "
        "configuration; resume with the exact configuration of the "
        "preempted run (only num_threads may differ)");
  }
  return Status::OK();
}

}  // namespace

Status Dbg4Eth::WriteTrainState(
    std::ostream* os, const ml::SplitIndices& split,
    const std::vector<std::unique_ptr<EpochLoop>>& sessions) const {
  BinaryWriter writer(os);
  writer.WriteString("dbg4eth_train_state");
  writer.WriteU32(kTrainStateVersion);
  WriteConfig(&writer, config_);
  WriteTrainHparams(&writer, config_);
  writer.WriteString("split");
  writer.WriteIntVector(split.train);
  writer.WriteIntVector(split.val);
  writer.WriteIntVector(split.test);
  writer.WriteDoubleVector(normalizer_.means());
  writer.WriteDoubleVector(normalizer_.stds());
  for (const auto& session : sessions) session->SaveState(&writer);
  writer.WriteString("end");
  if (!writer.ok()) return Status::Internal("training snapshot write failed");
  return Status::OK();
}

Result<TrainProgress> Dbg4Eth::ResumeTrain(eth::SubgraphDataset* dataset,
                                           const TrainSnapshotOptions& options) {
  if (options.store == nullptr) {
    return Status::InvalidArgument("ResumeTrain requires a checkpoint store");
  }
  DBG4ETH_ASSIGN_OR_RETURN(CheckpointStore::LoadedCheckpoint latest,
                           options.store->LoadLatestValid());
  std::istringstream body(latest.payload);
  BinaryReader reader(&body);
  DBG4ETH_RETURN_NOT_OK(reader.ExpectTag("dbg4eth_train_state"));
  uint32_t version = 0;
  DBG4ETH_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kTrainStateVersion) {
    return Status::InvalidArgument("unsupported training snapshot version");
  }
  // Start from the live config so fields a TrainState does not carry
  // (gbdt, calibration, fractions) keep the caller's values when compared.
  Dbg4EthConfig snap = config_;
  DBG4ETH_RETURN_NOT_OK(ReadConfig(&reader, &snap));
  DBG4ETH_RETURN_NOT_OK(ReadTrainHparams(&reader, &snap));
  // Sync the live slice count from the dataset exactly as a fresh Train
  // would before comparing — the snapshot stores the synced value.
  if (config_.use_ldg && !dataset->instances.empty()) {
    config_.ldg.num_time_slices =
        static_cast<int>(dataset->instances.front().ldg.size());
  }
  DBG4ETH_RETURN_NOT_OK(CheckResumeCompatible(config_, snap));

  ml::SplitIndices split;
  DBG4ETH_RETURN_NOT_OK(reader.ExpectTag("split"));
  DBG4ETH_RETURN_NOT_OK(reader.ReadIntVector(&split.train));
  DBG4ETH_RETURN_NOT_OK(reader.ReadIntVector(&split.val));
  DBG4ETH_RETURN_NOT_OK(reader.ReadIntVector(&split.test));
  if (split.train.empty() || split.val.empty()) {
    return Status::DataLoss("training snapshot holds an empty split");
  }
  const int n = static_cast<int>(dataset->instances.size());
  for (const std::vector<int>* part : {&split.train, &split.val, &split.test}) {
    for (int idx : *part) {
      if (idx < 0 || idx >= n) {
        return Status::InvalidArgument(
            "training snapshot split indexes past this dataset; resume with "
            "the dataset the preempted run trained on");
      }
    }
  }

  std::vector<double> means, stds;
  DBG4ETH_RETURN_NOT_OK(reader.ReadDoubleVector(&means));
  DBG4ETH_RETURN_NOT_OK(reader.ReadDoubleVector(&stds));
  if (means.size() != features::kNumFeatures ||
      stds.size() != features::kNumFeatures) {
    return Status::DataLoss(
        "training snapshot normalizer width is not the feature width");
  }
  normalizer_.Restore(means, stds);
  // The snapshot was taken against the standardized dataset; the caller
  // hands the raw one (re-materialized after the crash). Standardize with
  // the restored statistics — not refit — so resumed epochs see inputs
  // bit-identical to the preempted run's.
  for (eth::GraphInstance& inst : dataset->instances) {
    eth::StandardizeInstance(normalizer_, &inst);
  }
  return RunTrainLoop(dataset, split, options, &reader);
}

Status Dbg4Eth::Save(std::ostream* os) const {
  if (!trained_) {
    return Status::FailedPrecondition("cannot save an untrained model");
  }
  // The model body is serialized into a payload buffer and committed as a
  // framed (magic + version + length + CRC32) checkpoint, so truncation
  // and bit corruption are detected before parsing on reload.
  std::ostringstream payload;
  DBG4ETH_RETURN_NOT_OK(SaveRaw(&payload));
  return WriteFramedCheckpoint(os, payload.str());
}

Status Dbg4Eth::SaveRaw(std::ostream* os) const {
  BinaryWriter writer(os);
  writer.WriteString("dbg4eth_checkpoint");
  writer.WriteU32(kCheckpointVersion);
  WriteConfig(&writer, config_);

  // Feature normalizer.
  writer.WriteDoubleVector(normalizer_.means());
  writer.WriteDoubleVector(normalizer_.stds());

  // Branch encoders + confidence scalers.
  if (config_.use_gsg) {
    ag::WriteParameters(&writer, gsg_->Parameters());
    writer.WriteDouble(gsg_scaler_.mean);
    writer.WriteDouble(gsg_scaler_.stddev);
  }
  if (config_.use_ldg) {
    ag::WriteParameters(&writer, ldg_->Parameters());
    writer.WriteDouble(ldg_scaler_.mean);
    writer.WriteDouble(ldg_scaler_.stddev);
  }

  // Calibration.
  if (config_.use_calibration) {
    if (config_.use_gsg) gsg_calibrator_->Save(&writer);
    if (config_.use_ldg) ldg_calibrator_->Save(&writer);
  }

  // Classifier head.
  head_->Save(&writer);
  writer.WriteString("end");
  if (!writer.ok()) return Status::Internal("checkpoint write failed");
  return Status::OK();
}

Result<std::unique_ptr<Dbg4Eth>> Dbg4Eth::Load(std::istream* is) {
  DBG4ETH_ASSIGN_OR_RETURN(std::string payload, ReadFramedCheckpoint(is));
  std::istringstream body(payload);
  return LoadRaw(&body);
}

Result<std::unique_ptr<Dbg4Eth>> Dbg4Eth::LoadRaw(std::istream* is) {
  BinaryReader reader(is);
  DBG4ETH_RETURN_NOT_OK(reader.ExpectTag("dbg4eth_checkpoint"));
  uint32_t version = 0;
  DBG4ETH_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kCheckpointVersion) {
    return Status::Internal("unsupported checkpoint version");
  }
  Dbg4EthConfig config;
  DBG4ETH_RETURN_NOT_OK(ReadConfig(&reader, &config));
  auto model = std::make_unique<Dbg4Eth>(config);

  std::vector<double> means, stds;
  DBG4ETH_RETURN_NOT_OK(reader.ReadDoubleVector(&means));
  DBG4ETH_RETURN_NOT_OK(reader.ReadDoubleVector(&stds));
  if (means.size() != features::kNumFeatures ||
      stds.size() != features::kNumFeatures) {
    return Status::Internal(
        "corrupt checkpoint: normalizer width is not the feature width");
  }
  model->normalizer_.Restore(means, stds);

  if (config.use_gsg) {
    model->gsg_ = std::make_unique<GsgEncoder>(config.gsg);
    std::vector<ag::Tensor> params = model->gsg_->Parameters();
    DBG4ETH_RETURN_NOT_OK(ag::ReadParameters(&reader, &params));
    DBG4ETH_RETURN_NOT_OK(reader.ReadDouble(&model->gsg_scaler_.mean));
    DBG4ETH_RETURN_NOT_OK(reader.ReadDouble(&model->gsg_scaler_.stddev));
  }
  if (config.use_ldg) {
    model->ldg_ = std::make_unique<LdgEncoder>(config.ldg);
    std::vector<ag::Tensor> params = model->ldg_->Parameters();
    DBG4ETH_RETURN_NOT_OK(ag::ReadParameters(&reader, &params));
    DBG4ETH_RETURN_NOT_OK(reader.ReadDouble(&model->ldg_scaler_.mean));
    DBG4ETH_RETURN_NOT_OK(reader.ReadDouble(&model->ldg_scaler_.stddev));
  }
  if (config.use_calibration) {
    if (config.use_gsg) {
      model->gsg_calibrator_ =
          std::make_unique<calib::AdaptiveCalibrator>(config.calibration);
      DBG4ETH_RETURN_NOT_OK(model->gsg_calibrator_->Load(&reader));
    }
    if (config.use_ldg) {
      model->ldg_calibrator_ =
          std::make_unique<calib::AdaptiveCalibrator>(config.calibration);
      DBG4ETH_RETURN_NOT_OK(model->ldg_calibrator_->Load(&reader));
    }
  }
  model->head_ = MakeHead(config.head, config.gbdt);
  // The head reads one calibrated probability per enabled branch.
  DBG4ETH_RETURN_NOT_OK(model->head_->Load(
      &reader, (config.use_gsg ? 1 : 0) + (config.use_ldg ? 1 : 0)));
  DBG4ETH_RETURN_NOT_OK(reader.ExpectTag("end"));
  model->trained_ = true;
  return model;
}

Result<EvaluationReport> Dbg4Eth::EvaluateWithHead(
    HeadKind kind, const eth::SubgraphDataset& dataset,
    const std::vector<int>& val_indices,
    const std::vector<int>& test_indices) const {
  if (!trained_) {
    return Status::FailedPrecondition("model has not been trained");
  }
  const int dim = (config_.use_gsg ? 1 : 0) + (config_.use_ldg ? 1 : 0);
  Matrix head_x(static_cast<int>(val_indices.size()), dim);
  std::vector<int> val_labels;
  for (size_t r = 0; r < val_indices.size(); ++r) {
    const auto features = HeadFeatures(dataset.instances[val_indices[r]]);
    for (size_t c = 0; c < features.size(); ++c) {
      head_x.At(static_cast<int>(r), static_cast<int>(c)) = features[c];
    }
    val_labels.push_back(dataset.instances[val_indices[r]].label);
  }
  std::unique_ptr<ml::BinaryClassifier> head =
      MakeHead(kind, AdjustedGbdt(static_cast<int>(val_indices.size())));
  DBG4ETH_RETURN_NOT_OK(head->Train(head_x, val_labels));

  EvaluationReport report;
  for (int idx : test_indices) {
    const auto features = HeadFeatures(dataset.instances[idx]);
    report.test_labels.push_back(dataset.instances[idx].label);
    report.test_probs.push_back(head->PredictProba(features.data()));
  }
  report.metrics = ml::ComputeBinaryMetrics(
      report.test_labels, ml::ThresholdPredictions(report.test_probs));
  report.auc = ml::RocAuc(report.test_labels, report.test_probs);
  return report;
}

Result<EvaluationReport> Dbg4Eth::TrainAndEvaluate(
    eth::SubgraphDataset* dataset) {
  Rng rng(config_.seed);
  const ml::SplitIndices split = ml::StratifiedSplit(
      dataset->labels(), config_.train_fraction, config_.val_fraction, &rng);
  if (split.test.empty()) {
    return Status::InvalidArgument("test split is empty");
  }
  DBG4ETH_RETURN_NOT_OK(Train(dataset, split));
  return Evaluate(*dataset, split.test);
}

}  // namespace core
}  // namespace dbg4eth
