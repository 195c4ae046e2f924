#include "eth/dataset.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "features/node_features.h"
#include "obs/trace.h"

namespace dbg4eth {
namespace eth {

int SubgraphDataset::num_positives() const {
  int count = 0;
  for (const auto& inst : instances) count += inst.label;
  return count;
}

double SubgraphDataset::avg_nodes() const {
  if (instances.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& inst : instances) sum += inst.subgraph.num_nodes();
  return sum / instances.size();
}

double SubgraphDataset::avg_edges() const {
  if (instances.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& inst : instances) sum += inst.gsg.num_edges();
  return sum / instances.size();
}

std::vector<int> SubgraphDataset::labels() const {
  std::vector<int> out;
  out.reserve(instances.size());
  for (const auto& inst : instances) out.push_back(inst.label);
  return out;
}

Result<GraphInstance> MaterializeInstance(
    const Ledger& ledger, AccountId center,
    const graph::SamplingConfig& sampling, int num_time_slices) {
  if (num_time_slices < 1) {
    return Status::InvalidArgument("num_time_slices must be >= 1");
  }
  DBG4ETH_FAIL_POINT("eth.materialize");
  obs::TraceSpan span("materialize");
  obs::TraceSpan sample_span("sample_subgraph");
  Result<TxSubgraph> sub_result =
      graph::SampleSubgraph(ledger, center, sampling);
  sample_span.End();
  if (!sub_result.ok()) return sub_result.status();
  TxSubgraph sub = std::move(sub_result).ValueOrDie();
  if (sub.num_nodes() < 3 || sub.txs.empty()) {
    return Status::FailedPrecondition(
        "center yields a degenerate subgraph (< 3 nodes or no transactions)");
  }
  GraphInstance inst;
  {
    obs::TraceSpan build_span("build_graphs");
    inst.gsg = graph::BuildGlobalStaticGraph(sub);
    inst.ldg = graph::BuildLocalDynamicGraphs(sub, num_time_slices);
  }
  obs::TraceSpan features_span("node_features");
  inst.gsg.node_features =
      features::LogScaleFeatures(features::ComputeNodeFeatures(sub));
  inst.ldg.front().node_features = inst.gsg.node_features;
  features_span.End();
  inst.subgraph = std::move(sub);
  return inst;
}

namespace {

/// Expands one center into a GraphInstance; returns false when the center
/// yields a degenerate subgraph (fewer than 3 nodes or no transactions).
bool ExpandCenter(const Ledger& ledger, AccountId center, int label,
                  const DatasetConfig& config, GraphInstance* out) {
  auto result = MaterializeInstance(ledger, center, config.sampling,
                                    config.num_time_slices);
  if (!result.ok()) return false;
  GraphInstance inst = std::move(result).ValueOrDie();
  inst.label = label;
  inst.subgraph.label = label;
  *out = std::move(inst);
  return true;
}

}  // namespace

Result<SubgraphDataset> BuildDataset(const Ledger& ledger,
                                     const DatasetConfig& config) {
  if (config.target == AccountClass::kNormal) {
    return Status::InvalidArgument("target class must be a labeled class");
  }
  if (config.num_time_slices < 1) {
    return Status::InvalidArgument("num_time_slices must be >= 1");
  }
  Rng rng(config.seed);

  SubgraphDataset dataset;
  dataset.target = config.target;

  // Positive centers.
  std::vector<AccountId> positives = ledger.AccountsOfClass(config.target);
  if (positives.empty()) {
    return Status::NotFound("ledger has no accounts of the target class");
  }
  rng.Shuffle(&positives);
  if (config.max_positives > 0 &&
      static_cast<int>(positives.size()) > config.max_positives) {
    positives.resize(config.max_positives);
  }

  for (AccountId center : positives) {
    GraphInstance inst;
    if (!ExpandCenter(ledger, center, /*label=*/1, config, &inst)) continue;
    inst.subgraph.center_class = config.target;
    dataset.instances.push_back(std::move(inst));
  }
  const int n_positive_ok = dataset.num_graphs();
  if (n_positive_ok == 0) {
    return Status::Internal("no positive center produced a usable subgraph");
  }

  // Negative centers: other labeled classes ("hard") + active normal users.
  // The target class and the two pools are disjoint, so no center repeats.
  const int n_negatives = static_cast<int>(
      std::max(1.0, config.negative_ratio * n_positive_ok));
  std::vector<AccountId> hard_pool;
  for (const Account& acc : ledger.accounts()) {
    if (acc.cls != AccountClass::kNormal && acc.cls != config.target) {
      hard_pool.push_back(acc.id);
    }
  }
  rng.Shuffle(&hard_pool);
  std::vector<AccountId> normal_pool;
  for (const Account& acc : ledger.accounts()) {
    if (acc.cls == AccountClass::kNormal && acc.id != ledger.coinbase_id() &&
        ledger.TransactionsOf(acc.id).size() >= 5) {
      normal_pool.push_back(acc.id);
    }
  }
  rng.Shuffle(&normal_pool);

  // Draw the next hard center while fewer than want_hard negatives were
  // added, else the next normal one; when one pool runs dry, draw from the
  // other. A center with an unusable subgraph is skipped.
  const int want_hard = static_cast<int>(
      n_negatives * Clamp(config.hard_negative_fraction, 0.0, 1.0));
  int added = 0;
  size_t hard_next = 0;
  size_t normal_next = 0;
  while (added < n_negatives) {
    AccountId center = -1;
    if (added < want_hard && hard_next < hard_pool.size()) {
      center = hard_pool[hard_next++];
    } else if (normal_next < normal_pool.size()) {
      center = normal_pool[normal_next++];
    } else if (hard_next < hard_pool.size()) {
      center = hard_pool[hard_next++];
    } else {
      break;  // Both pools exhausted.
    }
    GraphInstance inst;
    if (!ExpandCenter(ledger, center, /*label=*/0, config, &inst)) continue;
    dataset.instances.push_back(std::move(inst));
    ++added;
  }

  if (added == 0) {
    return Status::Internal("no negative center produced a usable subgraph");
  }
  return dataset;
}

void StandardizeDataset(SubgraphDataset* dataset,
                        const std::vector<int>& fit_indices,
                        features::FeatureNormalizer* fitted) {
  DBG4ETH_CHECK(!fit_indices.empty());
  std::vector<const Matrix*> fit_mats;
  fit_mats.reserve(fit_indices.size());
  for (int idx : fit_indices) {
    DBG4ETH_CHECK(idx >= 0 && idx < dataset->num_graphs());
    fit_mats.push_back(&dataset->instances[idx].gsg.node_features);
  }
  features::FeatureNormalizer normalizer;
  normalizer.Fit(fit_mats);
  for (GraphInstance& inst : dataset->instances) {
    StandardizeInstance(normalizer, &inst);
  }
  if (fitted != nullptr) *fitted = normalizer;
}

void StandardizeInstance(const features::FeatureNormalizer& normalizer,
                         GraphInstance* instance) {
  instance->gsg.node_features = normalizer.Apply(instance->gsg.node_features);
  if (!instance->ldg.empty()) {
    instance->ldg.front().node_features = instance->gsg.node_features;
  }
}

}  // namespace eth
}  // namespace dbg4eth
