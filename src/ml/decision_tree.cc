#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "ml/feature_binner.h"
#include "ml/histogram_builder.h"

namespace eafe::ml {
namespace {

/// Nodes with fewer rows stay leaves.
constexpr size_t kMinSamplesSplit = 4;

/// Gini impurity from flat per-class counts.
double Gini(const std::vector<size_t>& counts, size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (size_t count : counts) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

DecisionTree::DecisionTree(const Options& options) : options_(options) {}

Status DecisionTree::FitExact(const data::DataFrame& x,
                              const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_ASSIGN_OR_RETURN(BinnedLabels labels,
                        BinnedLabels::Create(options_.task, y));
  std::vector<size_t> rows(y.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  nodes_.clear();
  binner_.reset();
  image_ = FlatEnsemble();
  num_features_ = x.num_columns();
  importances_.assign(num_features_, 0.0);
  num_classes_ = labels.num_classes;
  Rng rng(options_.seed);
  BuildNode(x, y, rows, 0, &rng);
  return Status::OK();
}

Status DecisionTree::FitBinned(std::shared_ptr<const FeatureBinner> binner,
                               const std::vector<double>& y,
                               const std::vector<size_t>& rows) {
  EAFE_RETURN_NOT_OK(CheckBinnedView(binner.get(), y, rows));
  EAFE_ASSIGN_OR_RETURN(BinnedLabels labels,
                        BinnedLabels::Create(options_.task, y));
  GrowBinned(std::move(binner), y, rows, labels);
  // A standalone tree is a forest of one.
  image_ = FlatEnsemble(EnsembleKind::kForestVote, options_.task,
                        num_features_, num_classes_);
  AppendTo(&image_);
  return Status::OK();
}

void DecisionTree::GrowBinned(std::shared_ptr<const FeatureBinner> binner,
                              const std::vector<double>& y,
                              std::vector<size_t> rows,
                              const BinnedLabels& labels) {
  nodes_.clear();
  binner_ = std::move(binner);
  depth_ = 0;
  num_features_ = binner_->num_features();
  importances_.assign(num_features_, 0.0);
  num_classes_ = labels.num_classes;

  HistogramBuilder builder(binner_.get(), options_.task, &labels, &y);
  Histogram scratch;
  builder.Totals(rows, &scratch);
  std::vector<size_t> staging(rows.size());
  Rng rng(options_.seed);
  BuildNodeHistogram(builder, rows, staging, &scratch, 0, &rng);
}

DecisionTree::Node DecisionTree::MakeLeaf(const std::vector<double>& y,
                                          const std::vector<size_t>& indices) {
  Node leaf;
  if (options_.task == data::TaskType::kClassification) {
    leaf_counts_.assign(static_cast<size_t>(num_classes_), 0);
    size_t positives = 0;
    for (size_t i : indices) {
      const int cls = static_cast<int>(y[i]);
      ++leaf_counts_[static_cast<size_t>(cls)];
      if (cls == 1) ++positives;
    }
    size_t best_count = 0;
    size_t best_class = 0;
    for (size_t cls = 0; cls < leaf_counts_.size(); ++cls) {
      if (leaf_counts_[cls] > best_count) {
        best_count = leaf_counts_[cls];
        best_class = cls;
      }
    }
    leaf.value = static_cast<double>(best_class);
    leaf.proba = indices.empty()
                     ? 0.0
                     : static_cast<double>(positives) /
                           static_cast<double>(indices.size());
  } else {
    double sum = 0.0;
    for (size_t i : indices) sum += y[i];
    leaf.value = indices.empty()
                     ? 0.0
                     : sum / static_cast<double>(indices.size());
    leaf.proba = leaf.value;
  }
  return leaf;
}

DecisionTree::Node DecisionTree::LeafFromTotals(
    const std::vector<double>& totals, size_t n) const {
  Node leaf;
  const double count = static_cast<double>(n);
  if (options_.task == data::TaskType::kClassification) {
    size_t best_class = 0;
    for (size_t cls = 1; cls < totals.size(); ++cls) {
      if (totals[cls] > totals[best_class]) best_class = cls;
    }
    leaf.value = static_cast<double>(best_class);
    leaf.proba = totals.size() > 1 ? totals[1] / count : 0.0;
  } else {
    leaf.value = totals[1] / count;
    leaf.proba = leaf.value;
  }
  return leaf;
}

std::vector<size_t> DecisionTree::SampleFeatures(Rng* rng) const {
  if (options_.max_features > 0 && options_.max_features < num_features_) {
    return rng->SampleWithoutReplacement(num_features_,
                                         options_.max_features);
  }
  std::vector<size_t> features(num_features_);
  std::iota(features.begin(), features.end(), size_t{0});
  return features;
}

DecisionTree::SplitResult DecisionTree::FindBestSplit(
    const data::DataFrame& x, const std::vector<double>& y,
    const std::vector<size_t>& indices, Rng* rng) {
  SplitResult best;
  const size_t n = indices.size();
  const bool classification =
      options_.task == data::TaskType::kClassification;

  // Parent impurity.
  double parent_impurity;
  double sum_y = 0.0, sum_y2 = 0.0;
  if (classification) {
    parent_counts_.assign(static_cast<size_t>(num_classes_), 0);
    for (size_t i : indices) {
      ++parent_counts_[static_cast<size_t>(static_cast<int>(y[i]))];
    }
    parent_impurity = Gini(parent_counts_, n);
  } else {
    for (size_t i : indices) {
      sum_y += y[i];
      sum_y2 += y[i] * y[i];
    }
    const double mean = sum_y / static_cast<double>(n);
    parent_impurity = sum_y2 / static_cast<double>(n) - mean * mean;
  }
  if (parent_impurity <= 1e-12) return best;  // Pure node.

  const std::vector<size_t> features = SampleFeatures(rng);

  std::vector<std::pair<double, size_t>> sorted;  // (value, sample index)
  sorted.reserve(n);
  for (size_t f : features) {
    const data::Column& col = x.column(f);
    sorted.clear();
    for (size_t i : indices) sorted.emplace_back(col[i], i);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;  // Constant.

    if (classification) {
      left_counts_.assign(static_cast<size_t>(num_classes_), 0);
      right_counts_ = parent_counts_;
      size_t left_n = 0;
      for (size_t pos = 0; pos + 1 < n; ++pos) {
        const size_t cls =
            static_cast<size_t>(static_cast<int>(y[sorted[pos].second]));
        ++left_counts_[cls];
        --right_counts_[cls];
        ++left_n;
        if (sorted[pos].first == sorted[pos + 1].first) continue;
        const size_t right_n = n - left_n;
        if (left_n < options_.min_samples_leaf ||
            right_n < options_.min_samples_leaf) {
          continue;
        }
        const double wl = static_cast<double>(left_n) / static_cast<double>(n);
        const double impurity = wl * Gini(left_counts_, left_n) +
                                (1.0 - wl) * Gini(right_counts_, right_n);
        const double gain = parent_impurity - impurity;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (sorted[pos].first + sorted[pos + 1].first);
        }
      }
    } else {
      double left_sum = 0.0, left_sum2 = 0.0;
      size_t left_n = 0;
      for (size_t pos = 0; pos + 1 < n; ++pos) {
        const double value = y[sorted[pos].second];
        left_sum += value;
        left_sum2 += value * value;
        ++left_n;
        if (sorted[pos].first == sorted[pos + 1].first) continue;
        const size_t right_n = n - left_n;
        if (left_n < options_.min_samples_leaf ||
            right_n < options_.min_samples_leaf) {
          continue;
        }
        const double right_sum = sum_y - left_sum;
        const double right_sum2 = sum_y2 - left_sum2;
        const double lm = left_sum / static_cast<double>(left_n);
        const double rm = right_sum / static_cast<double>(right_n);
        const double left_var =
            left_sum2 / static_cast<double>(left_n) - lm * lm;
        const double right_var =
            right_sum2 / static_cast<double>(right_n) - rm * rm;
        const double wl = static_cast<double>(left_n) / static_cast<double>(n);
        const double impurity = wl * left_var + (1.0 - wl) * right_var;
        const double gain = parent_impurity - impurity;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (sorted[pos].first + sorted[pos + 1].first);
        }
      }
    }
  }
  return best;
}

int DecisionTree::BuildNode(const data::DataFrame& x,
                            const std::vector<double>& y,
                            std::vector<size_t>& indices, size_t depth,
                            Rng* rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(MakeLeaf(y, indices));
  if (depth >= options_.max_depth ||
      indices.size() < kMinSamplesSplit) {
    return node_id;
  }
  const SplitResult split = FindBestSplit(x, y, indices, rng);
  if (split.feature < 0 || split.gain <= 1e-12) return node_id;

  const data::Column& col = x.column(static_cast<size_t>(split.feature));
  std::vector<size_t> left_idx, right_idx;
  left_idx.reserve(indices.size());
  right_idx.reserve(indices.size());
  for (size_t i : indices) {
    (col[i] <= split.threshold ? left_idx : right_idx).push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;

  importances_[static_cast<size_t>(split.feature)] +=
      split.gain * static_cast<double>(indices.size());

  // Free the parent's index list before recursing to bound peak memory.
  indices.clear();
  indices.shrink_to_fit();

  const int left = BuildNode(x, y, left_idx, depth + 1, rng);
  const int right = BuildNode(x, y, right_idx, depth + 1, rng);
  nodes_[node_id].feature = split.feature;
  nodes_[node_id].threshold = split.threshold;
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

int DecisionTree::BuildNodeHistogram(HistogramBuilder& builder,
                                     std::span<size_t> rows,
                                     std::span<size_t> staging,
                                     Histogram* scratch, size_t depth,
                                     Rng* rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(LeafFromTotals(scratch->totals, rows.size()));
  depth_ = std::max(depth_, static_cast<uint32_t>(depth));
  if (depth >= options_.max_depth ||
      rows.size() < kMinSamplesSplit) {
    return node_id;
  }
  const double parent_impurity = builder.NodeImpurity(*scratch, rows.size());
  if (parent_impurity <= 1e-12) return node_id;  // Pure node.

  // The node scans only the features it samples, so it accumulates only
  // those slices of the fit's one scratch histogram. The split search is
  // done with it before the children refill it for their own samples.
  const std::vector<size_t> features = SampleFeatures(rng);
  builder.Build(rows, features, scratch);
  const HistogramBuilder::Split split =
      builder.FindBestSplit(*scratch, features, rows.size(),
                            options_.min_samples_leaf, parent_impurity);
  if (split.feature < 0 || split.gain <= 1e-12) return node_id;

  // One stable pass splits the node's range in place and sums each
  // child's totals, so a child's rows keep the order they had here.
  const size_t feature = static_cast<size_t>(split.feature);
  const size_t width = builder.entry_width();
  const size_t group = 2 * depth * width;
  if (child_totals_.size() < group + 2 * width) {
    child_totals_.resize(group + 2 * width);
  }
  const size_t num_left = builder.Partition(
      rows, feature, static_cast<uint8_t>(split.bin), staging,
      std::span<double>(child_totals_.data() + group, width),
      std::span<double>(child_totals_.data() + group + width, width));
  if (num_left == 0 || num_left == rows.size()) return node_id;

  importances_[feature] += split.gain * static_cast<double>(rows.size());

  // The left subtree may grow child_totals_, so the right child's totals
  // are read back only when its turn comes.
  const double* left_totals = child_totals_.data() + group;
  scratch->totals.assign(left_totals, left_totals + width);
  const int left = BuildNodeHistogram(builder, rows.first(num_left), staging,
                                      scratch, depth + 1, rng);
  const double* right_totals = child_totals_.data() + group + width;
  scratch->totals.assign(right_totals, right_totals + width);
  const int right = BuildNodeHistogram(builder, rows.subspan(num_left),
                                       staging, scratch, depth + 1, rng);
  nodes_[node_id].feature = split.feature;
  nodes_[node_id].split_bin = split.bin;
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void DecisionTree::AppendTo(FlatEnsemble* image) const {
  const uint32_t base = static_cast<uint32_t>(image->model().num_nodes());
  for (const Node& nd : nodes_) {
    const uint32_t node = image->AddNode(nd.value, nd.proba);
    if (nd.feature >= 0) {
      image->SetSplit(node, nd.feature, static_cast<uint8_t>(nd.split_bin),
                      base + static_cast<uint32_t>(nd.left),
                      base + static_cast<uint32_t>(nd.right));
    }
  }
  image->EndTree(depth_);
}

size_t DecisionTree::TraverseToLeaf(const data::DataFrame& x,
                                    size_t row) const {
  size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const double value =
        x.column(static_cast<size_t>(nodes_[node].feature))[row];
    node = static_cast<size_t>(value <= nodes_[node].threshold
                                   ? nodes_[node].left
                                   : nodes_[node].right);
  }
  return node;
}

std::vector<double> DecisionTree::PredictFrame(const data::DataFrame& x,
                                               bool proba) const {
  if (image_.num_trees() > 0) return SharedBinnerModel::PredictFrame(x, proba);
  std::vector<double> out(x.num_rows());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    const Node& leaf = nodes_[TraverseToLeaf(x, r)];
    out[r] = proba ? leaf.proba : leaf.value;
  }
  return out;
}

}  // namespace eafe::ml
