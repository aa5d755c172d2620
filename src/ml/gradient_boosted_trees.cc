#include "ml/gradient_boosted_trees.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "core/activation.h"
#include "core/string_util.h"

namespace eafe::ml {
namespace {

constexpr double kMinGain = 1e-12;
/// Hessian floor: keeps leaf weights finite when a logistic prediction
/// saturates (p -> 0 or 1 makes p(1-p) underflow).
constexpr double kMinHessian = 1e-16;
/// Clamp on the base-rate used for the initial log-odds.
constexpr double kProbaClamp = 1e-6;

}  // namespace

GradientBoostedTrees::GradientBoostedTrees(const Options& options)
    : options_(options) {}

Status GradientBoostedTrees::FitBinned(
    std::shared_ptr<const FeatureBinner> binner, const std::vector<double>& y,
    const std::vector<size_t>& rows) {
  EAFE_RETURN_NOT_OK(CheckBinnedView(binner.get(), y, rows));
  if (options_.rounds == 0) {
    return Status::InvalidArgument("booster needs at least one round");
  }
  if (options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  std::vector<uint8_t> seen(y.size(), 0);
  for (size_t row : rows) {
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
  // The view rows' codes, gathered once: every round's tree walks them.
  std::vector<uint8_t> view_codes;
  EAFE_RETURN_NOT_OK(binner->GatherRows(rows, &view_codes));

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
  image_ = FlatEnsemble(EnsembleKind::kBoostedSum, options_.task,
                        num_features_, /*num_classes=*/0, base_score_,
                        options_.learning_rate);

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

  std::vector<uint32_t> leaves(n);
  // Each round's row array, partitioned in place by its tree, and the
  // partition's staging rows.
  std::vector<size_t> tree_rows;
  std::vector<size_t> staging(n);
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
    Histogram root = AcquireHistogram();
    builder.Totals(sample, &root);
    builder.Build(sample, builder.all_features(), &root);
    tree_rows.assign(sample.begin(), sample.end());
    uint32_t deepest = 0;
    BuildNode(builder, tree_rows, staging, std::move(root), 0, &deepest);
    image_.EndTree(deepest);
    // Every view row (sampled or not) advances through the new tree so
    // the next round's gradients see the full ensemble.
    image_.WalkTree(round, view_codes.data(), n, leaves.data());
    const std::vector<double>& value = image_.model().value;
    for (size_t i = 0; i < n; ++i) {
      score[rows[i]] += options_.learning_rate * value[leaves[i]];
    }
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

uint32_t GradientBoostedTrees::BuildNode(const HistogramBuilder& builder,
                                         std::span<size_t> rows,
                                         std::span<size_t> staging,
                                         Histogram&& hist, uint32_t depth,
                                         uint32_t* deepest) {
  const uint32_t node_id = image_.AddNode(
      -hist.totals[1] / (hist.totals[2] + options_.lambda), 0.0);
  *deepest = std::max(*deepest, depth);
  if (depth >= options_.max_depth ||
      rows.size() < 2 * options_.min_samples_leaf) {
    ReleaseHistogram(std::move(hist));
    return node_id;
  }
  const HistogramBuilder::Split split = builder.FindBestSplitGradient(
      hist, options_.min_samples_leaf, options_.lambda);
  if (split.feature < 0 || split.gain <= kMinGain) {
    ReleaseHistogram(std::move(hist));
    return node_id;
  }

  // One stable pass splits the node's range in place and sums both
  // children's {count, Σg, Σh} totals in row order.
  const uint8_t split_bin = static_cast<uint8_t>(split.bin);
  std::array<double, 3> left_totals{};
  std::array<double, 3> right_totals{};
  const size_t num_left =
      builder.Partition(rows, static_cast<size_t>(split.feature), split_bin,
                        staging, left_totals, right_totals);
  if (num_left == 0 || num_left == rows.size()) {
    ReleaseHistogram(std::move(hist));
    return node_id;
  }
  const std::span<size_t> left_rows = rows.first(num_left);
  const std::span<size_t> right_rows = rows.subspan(num_left);

  // Subtraction trick: every node scans every feature, so accumulate the
  // smaller child from rows and derive the larger child as parent minus
  // sibling (in place, so `hist` becomes the larger child's histogram,
  // totals included). Subtracting walks the full flat array three times,
  // though, so for nodes much smaller than the histogram itself
  // rebuilding the larger child from its rows is the cheaper path. The
  // choice depends only on node sizes, so fits stay reproducible across
  // runs and thread counts.
  const bool left_is_smaller = left_rows.size() <= right_rows.size();
  const std::span<size_t> smaller_rows =
      left_is_smaller ? left_rows : right_rows;
  const std::span<size_t> larger_rows =
      left_is_smaller ? right_rows : left_rows;
  const std::array<double, 3>& smaller_totals =
      left_is_smaller ? left_totals : right_totals;
  const std::array<double, 3>& larger_totals =
      left_is_smaller ? right_totals : left_totals;
  Histogram smaller = AcquireHistogram();
  smaller.totals.assign(smaller_totals.begin(), smaller_totals.end());
  builder.Build(smaller_rows, builder.all_features(), &smaller);
  if (larger_rows.size() * binner_->num_features() <
      2 * builder.total_size()) {
    hist.totals.assign(larger_totals.begin(), larger_totals.end());
    builder.Build(larger_rows, builder.all_features(), &hist);
  } else {
    builder.Subtract(hist, smaller, &hist);
  }
  Histogram left_hist =
      left_is_smaller ? std::move(smaller) : std::move(hist);
  Histogram right_hist =
      left_is_smaller ? std::move(hist) : std::move(smaller);

  const uint32_t left = BuildNode(builder, left_rows, staging,
                                  std::move(left_hist), depth + 1, deepest);
  const uint32_t right = BuildNode(builder, right_rows, staging,
                                   std::move(right_hist), depth + 1, deepest);
  image_.SetSplit(node_id, split.feature, split_bin, left, right);
  return node_id;
}

}  // namespace eafe::ml
