#include "ml/gradient_boosted_trees.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/check.h"
#include "core/string_util.h"

namespace eafe::ml {
namespace {

constexpr double kMinGain = 1e-12;
/// Hessian floor: keeps leaf weights finite when a logistic prediction
/// saturates (p -> 0 or 1 makes p(1-p) underflow).
constexpr double kMinHessian = 1e-16;
/// Clamp on the base-rate used for the initial log-odds.
constexpr double kProbaClamp = 1e-6;

double Sigmoid(double s) {
  if (s >= 0.0) return 1.0 / (1.0 + std::exp(-s));
  const double e = std::exp(s);
  return e / (1.0 + e);
}

}  // namespace

GradientBoostedTrees::GradientBoostedTrees(const Options& options)
    : options_(options) {}

Status GradientBoostedTrees::Fit(const data::DataFrame& x,
                                 const std::vector<double>& y) {
  if (x.num_columns() == 0) {
    return Status::InvalidArgument("booster needs at least one feature");
  }
  if (x.num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument(
        StrFormat("rows (%zu) and labels (%zu) disagree or are empty",
                  x.num_rows(), y.size()));
  }
  // The standalone fit is the degenerate shared case: bin the frame once
  // and train on the all-rows view.
  EAFE_ASSIGN_OR_RETURN(std::shared_ptr<const FeatureBinner> binner,
                        BinFrame(x));
  std::vector<size_t> rows(y.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  return FitBinned(std::move(binner), y, rows);
}

std::optional<FeatureBinner::Options> GradientBoostedTrees::BinnerOptions()
    const {
  FeatureBinner::Options binner_options;
  binner_options.max_bins = options_.max_bins;
  return binner_options;
}

Status GradientBoostedTrees::FitBinned(
    std::shared_ptr<const FeatureBinner> binner, const std::vector<double>& y,
    const std::vector<size_t>& rows) {
  if (options_.rounds == 0) {
    return Status::InvalidArgument("booster needs at least one round");
  }
  if (options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  if (binner == nullptr || !binner->fitted()) {
    return Status::InvalidArgument("binner is null or not fitted");
  }
  if (binner->num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument(
        StrFormat("binned frame rows (%zu) and labels (%zu) disagree or "
                  "are empty",
                  binner->num_rows(), y.size()));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("row view must be nonempty");
  }
  std::vector<uint8_t> seen(y.size(), 0);
  for (size_t row : rows) {
    if (row >= y.size()) {
      return Status::InvalidArgument(StrFormat(
          "row id %zu out of range (%zu frame rows)", row, y.size()));
    }
    if (seen[row]) {
      return Status::InvalidArgument(StrFormat(
          "duplicate row id %zu: boosting keeps per-row score state and "
          "cannot train on repeated rows",
          row));
    }
    seen[row] = 1;
  }
  const bool classification =
      options_.task == data::TaskType::kClassification;
  if (classification) {
    for (size_t row : rows) {
      if (y[row] != 0.0 && y[row] != 1.0) {
        return Status::InvalidArgument(
            "gbdt classification is binary: labels must be 0 or 1");
      }
    }
  }

  trees_.clear();
  binner_ = std::move(binner);
  num_features_ = binner_->num_features();
  const size_t n = rows.size();

  // Base score: mean response, as clamped log-odds for the logistic loss.
  double mean = 0.0;
  for (size_t row : rows) mean += y[row];
  mean /= static_cast<double>(n);
  if (classification) {
    const double p =
        std::clamp(mean, kProbaClamp, 1.0 - kProbaClamp);
    base_score_ = std::log(p / (1.0 - p));
  } else {
    base_score_ = mean;
  }

  // Frame-row-indexed state; only view rows are ever read or written.
  std::vector<double> score(y.size(), base_score_);
  std::vector<double> grad(y.size(), 0.0);
  std::vector<double> hess(y.size(), 0.0);
  HistogramBuilder builder(binner_.get(), &grad, &hess);

  // Pre-draw every round's subsample serially up front so fits stay
  // bit-identical regardless of how histogram builds fan out later.
  const bool subsampled = options_.subsample < 1.0;
  std::vector<std::vector<size_t>> round_rows;
  if (subsampled) {
    const size_t k = std::clamp<size_t>(
        static_cast<size_t>(std::llround(
            options_.subsample * static_cast<double>(n))),
        1, n);
    Rng rng(options_.seed);
    round_rows.resize(options_.rounds);
    for (std::vector<size_t>& sample : round_rows) {
      const std::vector<size_t> draws = rng.SampleWithoutReplacement(n, k);
      sample.reserve(k);
      for (size_t d : draws) sample.push_back(rows[d]);
    }
  }

  trees_.reserve(options_.rounds);
  for (size_t round = 0; round < options_.rounds; ++round) {
    const std::vector<size_t>& sample =
        subsampled ? round_rows[round] : rows;
    for (size_t row : sample) {
      if (classification) {
        const double p = Sigmoid(score[row]);
        grad[row] = p - y[row];
        hess[row] = std::max(p * (1.0 - p), kMinHessian);
      } else {
        grad[row] = score[row] - y[row];
        hess[row] = 1.0;
      }
    }
    Tree tree;
    Histogram root = AcquireHistogram();
    builder.Totals(sample, &root);
    builder.Build(sample, builder.all_features(), &root);
    std::vector<size_t> indices = sample;  // BuildNode consumes its view.
    BuildNode(builder, indices, std::move(root), 0, &tree);
    // Every view row (sampled or not) advances through the new tree so
    // the next round's gradients see the full ensemble.
    for (size_t row : rows) {
      score[row] +=
          options_.learning_rate * TraverseBinnedRow(tree, row);
    }
    trees_.push_back(std::move(tree));
  }
  hist_pool_.clear();
  hist_pool_.shrink_to_fit();
  return Status::OK();
}

Histogram GradientBoostedTrees::AcquireHistogram() {
  if (hist_pool_.empty()) return Histogram();
  Histogram hist = std::move(hist_pool_.back());
  hist_pool_.pop_back();
  return hist;
}

void GradientBoostedTrees::ReleaseHistogram(Histogram&& hist) {
  hist_pool_.push_back(std::move(hist));
}

int GradientBoostedTrees::BuildNode(const HistogramBuilder& builder,
                                    std::vector<size_t>& indices,
                                    Histogram&& hist, size_t depth,
                                    Tree* tree) {
  const int node_id = static_cast<int>(tree->nodes.size());
  Node leaf;
  leaf.value = -hist.totals[1] / (hist.totals[2] + options_.lambda);
  tree->nodes.push_back(leaf);
  if (depth >= options_.max_depth ||
      indices.size() < 2 * options_.min_samples_leaf) {
    ReleaseHistogram(std::move(hist));
    return node_id;
  }
  const HistogramBuilder::Split split = builder.FindBestSplitGradient(
      hist, options_.min_samples_leaf, options_.lambda);
  if (split.feature < 0 || split.gain <= kMinGain) {
    ReleaseHistogram(std::move(hist));
    return node_id;
  }

  const size_t feature = static_cast<size_t>(split.feature);
  const std::vector<uint8_t>& codes = binner_->codes(feature);
  const uint8_t split_bin = static_cast<uint8_t>(split.bin);
  std::vector<size_t> left_idx, right_idx;
  left_idx.reserve(indices.size());
  right_idx.reserve(indices.size());
  for (size_t i : indices) {
    (codes[i] <= split_bin ? left_idx : right_idx).push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) {
    ReleaseHistogram(std::move(hist));
    return node_id;
  }
  const double threshold =
      binner_->cut(feature, static_cast<size_t>(split.bin));

  indices.clear();
  indices.shrink_to_fit();

  // Subtraction trick: every node scans every feature, so accumulate the
  // smaller child from rows and derive the larger child as parent minus
  // sibling (in place, so `hist` becomes the larger child's histogram).
  // Subtracting walks the full flat array three times, though, so for
  // nodes much smaller than the histogram itself rebuilding the larger
  // child from its rows is the cheaper path. The choice depends only on
  // node sizes, so fits stay reproducible across runs and thread counts.
  const bool left_is_smaller = left_idx.size() <= right_idx.size();
  const std::vector<size_t>& smaller_idx =
      left_is_smaller ? left_idx : right_idx;
  const std::vector<size_t>& larger_idx =
      left_is_smaller ? right_idx : left_idx;
  Histogram smaller = AcquireHistogram();
  builder.Totals(smaller_idx, &smaller);
  builder.Build(smaller_idx, builder.all_features(), &smaller);
  if (larger_idx.size() * binner_->num_features() <
      2 * builder.total_size()) {
    builder.Totals(larger_idx, &hist);
    builder.Build(larger_idx, builder.all_features(), &hist);
  } else {
    builder.Subtract(hist, smaller, &hist);
  }
  Histogram left_hist =
      left_is_smaller ? std::move(smaller) : std::move(hist);
  Histogram right_hist =
      left_is_smaller ? std::move(hist) : std::move(smaller);

  const int left =
      BuildNode(builder, left_idx, std::move(left_hist), depth + 1, tree);
  const int right =
      BuildNode(builder, right_idx, std::move(right_hist), depth + 1, tree);
  tree->nodes[node_id].feature = split.feature;
  tree->nodes[node_id].split_bin = split_bin;
  tree->nodes[node_id].threshold = threshold;
  tree->nodes[node_id].left = left;
  tree->nodes[node_id].right = right;
  return node_id;
}

Result<std::vector<TreeNodes>> GradientBoostedTrees::ExportTrees() const {
  if (trees_.empty()) {
    return Status::FailedPrecondition("booster is not fitted");
  }
  EAFE_CHECK(binner_ != nullptr);  // Histogram-only: every fit has one.
  std::vector<TreeNodes> out;
  out.reserve(trees_.size());
  for (const Tree& tree : trees_) {
    TreeNodes nodes(tree.nodes.size());
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      const Node& nd = tree.nodes[i];
      TreeNodeRecord& rec = nodes[i];
      rec.feature = nd.feature;
      rec.split_bin = nd.split_bin;
      rec.left = nd.left;
      rec.right = nd.right;
      rec.value = nd.value;
    }
    out.push_back(std::move(nodes));
  }
  return out;
}

double GradientBoostedTrees::TraverseBinnedRow(const Tree& tree,
                                               size_t row) const {
  size_t node = 0;
  while (tree.nodes[node].feature >= 0) {
    const Node& nd = tree.nodes[node];
    node = static_cast<size_t>(
        binner_->code(static_cast<size_t>(nd.feature), row) <= nd.split_bin
            ? nd.left
            : nd.right);
  }
  return tree.nodes[node].value;
}

double GradientBoostedTrees::TraverseCoded(const Tree& tree,
                                           const EncodedFrame& codes,
                                           size_t row) const {
  size_t node = 0;
  while (tree.nodes[node].feature >= 0) {
    const Node& nd = tree.nodes[node];
    node = static_cast<size_t>(
        codes[static_cast<size_t>(nd.feature)][row] <= nd.split_bin
            ? nd.left
            : nd.right);
  }
  return tree.nodes[node].value;
}

std::vector<double> GradientBoostedTrees::RawScoresCoded(
    const EncodedFrame& codes, size_t num_rows) const {
  std::vector<double> scores(num_rows, base_score_);
  for (const Tree& tree : trees_) {
    for (size_t r = 0; r < num_rows; ++r) {
      scores[r] += options_.learning_rate * TraverseCoded(tree, codes, r);
    }
  }
  return scores;
}

Status GradientBoostedTrees::CheckPredict(size_t num_columns) const {
  if (trees_.empty()) {
    return Status::FailedPrecondition("booster is not fitted");
  }
  if (num_columns != num_features_) {
    return Status::InvalidArgument(
        StrFormat("booster fitted on %zu features, got %zu", num_features_,
                  num_columns));
  }
  return Status::OK();
}

Result<std::vector<double>> GradientBoostedTrees::Predict(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredict(x.num_columns()));
  // Encode the query frame once; every tree then routes on uint8 codes,
  // bit-identical to raw-value comparisons by the cut/code invariant.
  EAFE_ASSIGN_OR_RETURN(EncodedFrame codes, binner_->Encode(x));
  std::vector<double> scores = RawScoresCoded(codes, x.num_rows());
  if (options_.task == data::TaskType::kClassification) {
    for (double& s : scores) s = Sigmoid(s) > 0.5 ? 1.0 : 0.0;
  }
  return scores;
}

Result<std::vector<double>> GradientBoostedTrees::PredictProba(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredict(x.num_columns()));
  EAFE_ASSIGN_OR_RETURN(EncodedFrame codes, binner_->Encode(x));
  std::vector<double> scores = RawScoresCoded(codes, x.num_rows());
  if (options_.task == data::TaskType::kClassification) {
    for (double& s : scores) s = Sigmoid(s);
  }
  return scores;
}

Result<std::vector<double>> GradientBoostedTrees::PredictBinnedRows(
    const std::vector<size_t>& rows) const {
  EAFE_RETURN_NOT_OK(CheckPredict(num_features_));
  const bool classification =
      options_.task == data::TaskType::kClassification;
  std::vector<double> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t row = rows[i];
    if (row >= binner_->num_rows()) {
      return Status::InvalidArgument(
          StrFormat("row id %zu out of range (%zu frame rows)", row,
                    binner_->num_rows()));
    }
    double score = base_score_;
    for (const Tree& tree : trees_) {
      score += options_.learning_rate * TraverseBinnedRow(tree, row);
    }
    out[i] = classification ? (Sigmoid(score) > 0.5 ? 1.0 : 0.0) : score;
  }
  return out;
}

}  // namespace eafe::ml
