#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.h"

namespace dbg4eth {
namespace ml {

namespace {

/// Candidate split of one leaf, found via feature histograms.
struct SplitCandidate {
  double gain = -1.0;
  int feature = -1;
  double threshold = 0.0;
};

/// Equal-width histogram split search on (grad, hess) sums. Returns the
/// best candidate for the given sample set.
SplitCandidate FindBestSplit(const Matrix& x, const std::vector<double>& grad,
                             const std::vector<double>& hess,
                             const std::vector<int>& samples,
                             const TreeConfig& config,
                             const std::vector<int>* feature_subset) {
  SplitCandidate best;
  double g_total = 0.0, h_total = 0.0;
  for (int s : samples) {
    g_total += grad[s];
    h_total += hess[s];
  }
  const double parent_score = g_total * g_total / (h_total + config.lambda);

  const int num_features =
      feature_subset ? static_cast<int>(feature_subset->size()) : x.cols();
  std::vector<double> g_bins(config.max_bins);
  std::vector<double> h_bins(config.max_bins);
  std::vector<int> n_bins(config.max_bins);
  for (int fi = 0; fi < num_features; ++fi) {
    const int f = feature_subset ? (*feature_subset)[fi] : fi;
    double lo = 1e300, hi = -1e300;
    for (int s : samples) {
      lo = std::min(lo, x.At(s, f));
      hi = std::max(hi, x.At(s, f));
    }
    if (hi - lo < 1e-12) continue;  // Constant feature in this leaf.
    const double width = (hi - lo) / config.max_bins;
    std::fill(g_bins.begin(), g_bins.end(), 0.0);
    std::fill(h_bins.begin(), h_bins.end(), 0.0);
    std::fill(n_bins.begin(), n_bins.end(), 0);
    for (int s : samples) {
      int bin = static_cast<int>((x.At(s, f) - lo) / width);
      bin = std::min(bin, config.max_bins - 1);
      g_bins[bin] += grad[s];
      h_bins[bin] += hess[s];
      ++n_bins[bin];
    }
    double g_left = 0.0, h_left = 0.0;
    int n_left = 0;
    for (int b = 0; b + 1 < config.max_bins; ++b) {
      g_left += g_bins[b];
      h_left += h_bins[b];
      n_left += n_bins[b];
      const int n_right = static_cast<int>(samples.size()) - n_left;
      if (n_left < config.min_samples_leaf ||
          n_right < config.min_samples_leaf) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      const double gain =
          g_left * g_left / (h_left + config.lambda) +
          g_right * g_right / (h_right + config.lambda) - parent_score;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = lo + width * (b + 1);
      }
    }
  }
  return best;
}

/// Node tables of both trees: feature, threshold, left, right, then the
/// double a leaf answers with (`leaf`: a value or a probability).
template <typename Node>
void SaveNodes(BinaryWriter* writer, const std::vector<Node>& nodes,
               double Node::*leaf) {
  writer->WriteU32(static_cast<uint32_t>(nodes.size()));
  for (const Node& n : nodes) {
    writer->WriteI32(n.feature);
    writer->WriteDouble(n.threshold);
    writer->WriteI32(n.left);
    writer->WriteI32(n.right);
    writer->WriteDouble(n.*leaf);
  }
}

/// Nodes are read one at a time, so a corrupt count runs out of stream
/// instead of allocating. Training places both children of an internal
/// node after it, so a walk from the root only moves forward and ends at a
/// leaf; a table that breaks this (a cycle, a child off the table) or that
/// splits on a feature past the row is corrupt.
template <typename Node>
Status LoadNodes(BinaryReader* reader, std::vector<Node>* nodes,
                 double Node::*leaf, int num_features) {
  uint32_t count = 0;
  DBG4ETH_RETURN_NOT_OK(reader->ReadU32(&count));
  if (count == 0) return Status::Internal("corrupt checkpoint: empty tree");
  nodes->clear();
  for (uint32_t i = 0; i < count; ++i) {
    Node n;
    DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&n.feature));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&n.threshold));
    DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&n.left));
    DBG4ETH_RETURN_NOT_OK(reader->ReadI32(&n.right));
    DBG4ETH_RETURN_NOT_OK(reader->ReadDouble(&(n.*leaf)));
    const int64_t id = i;
    const int64_t end = count;
    if (n.feature >= 0 && (n.left <= id || n.right <= id || n.left >= end ||
                           n.right >= end)) {
      return Status::Internal(
          "corrupt checkpoint: tree node child outside the table");
    }
    if (n.feature >= num_features) {
      return Status::Internal(
          "corrupt checkpoint: tree node splits on a feature past the row");
    }
    nodes->push_back(n);
  }
  return Status::OK();
}

double LeafValue(const std::vector<double>& grad,
                 const std::vector<double>& hess,
                 const std::vector<int>& samples, double lambda) {
  double g = 0.0, h = 0.0;
  for (int s : samples) {
    g += grad[s];
    h += hess[s];
  }
  return -g / (h + lambda);
}

}  // namespace

void RegressionTree::Train(const Matrix& x, const std::vector<double>& grad,
                           const std::vector<double>& hess,
                           const std::vector<int>& samples,
                           const TreeConfig& config) {
  nodes_.clear();
  DBG4ETH_CHECK(!samples.empty());

  struct LeafState {
    int node_id;
    std::vector<int> samples;
    int depth;
    SplitCandidate split;
  };
  nodes_.push_back(Node{});
  nodes_[0].value = LeafValue(grad, hess, samples, config.lambda);

  auto evaluate = [&](LeafState* leaf) {
    leaf->split = (leaf->depth < config.max_depth &&
                   static_cast<int>(leaf->samples.size()) >=
                       2 * config.min_samples_leaf)
                      ? FindBestSplit(x, grad, hess, leaf->samples, config,
                                      nullptr)
                      : SplitCandidate{};
  };

  std::vector<LeafState> leaves;
  leaves.push_back({0, samples, 0, {}});
  evaluate(&leaves[0]);

  int num_leaves = 1;
  while (num_leaves < config.max_leaves) {
    // Leaf-wise (LightGBM) growth splits the highest-gain leaf next;
    // level-wise (XGBoost-style) growth expands the shallowest splittable
    // leaf first, i.e. breadth-first.
    int best_leaf = -1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i].split.gain <= config.min_gain) continue;
      if (best_leaf < 0) {
        best_leaf = static_cast<int>(i);
        continue;
      }
      const bool better =
          config.leaf_wise
              ? leaves[i].split.gain > leaves[best_leaf].split.gain
              : leaves[i].depth < leaves[best_leaf].depth;
      if (better) best_leaf = static_cast<int>(i);
    }
    if (best_leaf < 0) break;

    LeafState leaf = std::move(leaves[best_leaf]);
    leaves.erase(leaves.begin() + best_leaf);

    std::vector<int> left_samples, right_samples;
    for (int s : leaf.samples) {
      (x.At(s, leaf.split.feature) <= leaf.split.threshold ? left_samples
                                                           : right_samples)
          .push_back(s);
    }
    const int left_id = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    const int right_id = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_[leaf.node_id].feature = leaf.split.feature;
    nodes_[leaf.node_id].threshold = leaf.split.threshold;
    nodes_[leaf.node_id].left = left_id;
    nodes_[leaf.node_id].right = right_id;
    nodes_[left_id].value = LeafValue(grad, hess, left_samples, config.lambda);
    nodes_[right_id].value =
        LeafValue(grad, hess, right_samples, config.lambda);

    LeafState left{left_id, std::move(left_samples), leaf.depth + 1, {}};
    LeafState right{right_id, std::move(right_samples), leaf.depth + 1, {}};
    evaluate(&left);
    evaluate(&right);
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
    ++num_leaves;
  }
}

double RegressionTree::Predict(const double* row) const {
  DBG4ETH_CHECK(!nodes_.empty());
  int node = 0;
  while (nodes_[node].feature >= 0) {
    node = row[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

int RegressionTree::num_leaves() const {
  int count = 0;
  for (const Node& n : nodes_) count += n.feature < 0 ? 1 : 0;
  return count;
}

int ClassificationTree::Build(const Matrix& x, const std::vector<int>& y,
                              std::vector<int> samples, int depth,
                              const TreeConfig& config,
                              int features_per_split, Rng* rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  double positives = 0.0;
  for (int s : samples) positives += y[s];
  const double n = static_cast<double>(samples.size());
  nodes_[node_id].prob = (positives + 1.0) / (n + 2.0);

  if (depth >= config.max_depth ||
      static_cast<int>(samples.size()) < 2 * config.min_samples_leaf ||
      positives == 0.0 || positives == n) {
    return node_id;
  }

  // Random feature subset (random forest) or all features.
  std::vector<int> subset;
  const std::vector<int>* subset_ptr = nullptr;
  if (features_per_split > 0 && features_per_split < x.cols()) {
    DBG4ETH_CHECK(rng != nullptr);
    subset = rng->SampleWithoutReplacement(x.cols(), features_per_split);
    subset_ptr = &subset;
  }

  // Gini-gain split via the gradient-split machinery: for binary labels,
  // using grad = y - p_parent and hess = 1 reduces to variance splitting,
  // which is equivalent to Gini impurity reduction up to scale.
  std::vector<double> grad(y.size(), 0.0);
  std::vector<double> hess(y.size(), 1.0);
  const double p_parent = positives / n;
  for (int s : samples) grad[s] = y[s] - p_parent;
  TreeConfig split_config = config;
  split_config.lambda = 1e-9;
  const SplitCandidate split =
      FindBestSplit(x, grad, hess, samples, split_config, subset_ptr);
  if (split.gain <= config.min_gain) return node_id;

  std::vector<int> left_samples, right_samples;
  for (int s : samples) {
    (x.At(s, split.feature) <= split.threshold ? left_samples : right_samples)
        .push_back(s);
  }
  nodes_[node_id].feature = split.feature;
  nodes_[node_id].threshold = split.threshold;
  const int left = Build(x, y, std::move(left_samples), depth + 1, config,
                         features_per_split, rng);
  const int right = Build(x, y, std::move(right_samples), depth + 1, config,
                          features_per_split, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void ClassificationTree::Train(const Matrix& x, const std::vector<int>& y,
                               const std::vector<int>& samples,
                               const TreeConfig& config,
                               int features_per_split, Rng* rng) {
  nodes_.clear();
  DBG4ETH_CHECK(!samples.empty());
  Build(x, y, samples, 0, config, features_per_split, rng);
}

double ClassificationTree::PredictProba(const double* row) const {
  DBG4ETH_CHECK(!nodes_.empty());
  int node = 0;
  while (nodes_[node].feature >= 0) {
    node = row[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].prob;
}

void RegressionTree::Save(BinaryWriter* writer) const {
  SaveNodes(writer, nodes_, &Node::value);
}

Status RegressionTree::Load(BinaryReader* reader, int num_features) {
  return LoadNodes(reader, &nodes_, &Node::value, num_features);
}

void ClassificationTree::Save(BinaryWriter* writer) const {
  SaveNodes(writer, nodes_, &Node::prob);
}

Status ClassificationTree::Load(BinaryReader* reader, int num_features) {
  return LoadNodes(reader, &nodes_, &Node::prob, num_features);
}

}  // namespace ml
}  // namespace dbg4eth
