#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "core/string_util.h"
#include "ml/feature_binner.h"
#include "runtime/thread_pool.h"

namespace eafe::ml {
namespace {

size_t ResolveMaxFeatures(const RandomForest::Options& options,
                          size_t num_features) {
  size_t max_features = options.max_features;
  if (max_features == 0) {
    max_features =
        options.task == data::TaskType::kClassification
            ? static_cast<size_t>(
                  std::ceil(std::sqrt(static_cast<double>(num_features))))
            : std::max<size_t>(num_features / 3, 1);
  }
  return std::min(max_features, num_features);
}

}  // namespace

RandomForest::RandomForest(const Options& options) : options_(options) {}

DecisionTree::Options RandomForest::TreeOptions(uint64_t seed) const {
  DecisionTree::Options tree_options;
  tree_options.task = options_.task;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = max_features_;
  tree_options.seed = seed;
  tree_options.split_strategy = SplitStrategy::kHistogram;
  tree_options.max_bins = options_.max_bins;
  return tree_options;
}

Result<std::vector<RandomForest::TreePlan>> RandomForest::DrawPlans(
    const std::vector<size_t>* rows, size_t n) {
  if (options_.num_trees == 0) {
    return Status::InvalidArgument("num_trees must be positive");
  }
  if (options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  const size_t pool = rows != nullptr ? rows->size() : n;
  if (pool == 0) return Status::InvalidArgument("no training rows");
  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(std::round(options_.subsample *
                                        static_cast<double>(pool))));
  // All randomness is drawn serially up front (bootstrap samples in tree
  // order, then each tree's seed), so the fit is bit-identical to the
  // serial path at any thread count; only the tree training itself fans
  // out. Samples hold absolute frame row ids: when training a row view (a
  // CV fold), draws index into `rows` and map through it.
  Rng rng(options_.seed);
  std::vector<TreePlan> plans(options_.num_trees);
  for (TreePlan& plan : plans) {
    plan.sample.resize(sample_size);
    for (size_t& s : plan.sample) {
      const size_t draw = rng.UniformInt(static_cast<uint64_t>(pool));
      s = rows != nullptr ? (*rows)[draw] : draw;
    }
    plan.seed = rng.Next();
  }
  return plans;
}

Status RandomForest::Fit(const data::DataFrame& x,
                         const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_ASSIGN_OR_RETURN(std::shared_ptr<const FeatureBinner> binner,
                        BinFrame(x));
  return FitShared(std::move(binner), y, /*rows=*/nullptr);
}

std::optional<FeatureBinner::Options> RandomForest::BinnerOptions() const {
  FeatureBinner::Options binner_options;
  binner_options.max_bins = options_.max_bins;
  return binner_options;
}

Status RandomForest::FitBinned(std::shared_ptr<const FeatureBinner> binner,
                               const std::vector<double>& y,
                               const std::vector<size_t>& rows) {
  if (binner == nullptr || !binner->fitted()) {
    return Status::InvalidArgument("FitBinned requires a fitted binner");
  }
  if (binner->num_rows() != y.size()) {
    return Status::InvalidArgument(
        StrFormat("binner holds %zu rows, labels hold %zu",
                  binner->num_rows(), y.size()));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("FitBinned requires training rows");
  }
  for (size_t r : rows) {
    if (r >= y.size()) {
      return Status::InvalidArgument("training row id out of range");
    }
  }
  return FitShared(std::move(binner), y, &rows);
}

Status RandomForest::FitShared(std::shared_ptr<const FeatureBinner> binner,
                               const std::vector<double>& y,
                               const std::vector<size_t>* rows) {
  EAFE_CHECK(binner != nullptr && binner->fitted());
  binner_.reset();
  image_ = FlatEnsemble();
  num_features_ = binner->num_features();
  max_features_ = ResolveMaxFeatures(options_, num_features_);
  importances_.assign(num_features_, 0.0);
  EAFE_ASSIGN_OR_RETURN(std::vector<TreePlan> plans,
                        DrawPlans(rows, y.size()));
  EAFE_ASSIGN_OR_RETURN(BinnedLabels labels,
                        BinnedLabels::Create(options_.task, y));

  // Every tree trains through a row-id view of the shared frame codes:
  // bootstrap is pure row selection, so nothing is materialized or
  // re-binned per tree. When Fit already runs on a pool worker (a
  // cross-validation fold), the trees train inline rather than
  // oversubscribing.
  std::vector<DecisionTree> trees(options_.num_trees);
  std::vector<Status> statuses(options_.num_trees);
  runtime::ParallelFor(
      runtime::GlobalPool(), options_.num_trees,
      [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          trees[t] = DecisionTree(TreeOptions(plans[t].seed));
          statuses[t] = trees[t].FitBinnedWithLabels(
              binner, y, std::move(plans[t].sample), labels);
        }
      });
  for (const Status& status : statuses) EAFE_RETURN_NOT_OK(status);
  binner_ = std::move(binner);
  num_classes_ = labels.num_classes;
  // The trees trained in parallel; they enter the image, and their
  // importances the sum, in tree order.
  image_ = FlatEnsemble(EnsembleKind::kForestVote, options_.task,
                        num_features_, num_classes_);
  for (const DecisionTree& tree : trees) {
    tree.AppendTo(&image_);
    const std::vector<double>& imp = tree.feature_importances();
    for (size_t f = 0; f < num_features_; ++f) importances_[f] += imp[f];
  }
  return Status::OK();
}

Status RandomForest::CheckPredict(size_t num_columns) const {
  if (!fitted()) {
    return Status::FailedPrecondition("forest is not fitted");
  }
  if (num_columns != num_features_) {
    return Status::InvalidArgument(
        StrFormat("forest fitted on %zu features, got %zu", num_features_,
                  num_columns));
  }
  return Status::OK();
}

Result<std::vector<double>> RandomForest::Predict(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredict(x.num_columns()));
  return image_.PredictFrame(*binner_, x, /*proba=*/false);
}

Result<std::vector<double>> RandomForest::PredictBinnedRows(
    const std::vector<size_t>& rows) const {
  EAFE_RETURN_NOT_OK(CheckPredict(num_features_));
  // Held-out fold rows are rows of the binned frame: gather their codes
  // once, then every tree walks the same row-major buffer.
  return image_.PredictRows(*binner_, rows);
}

Result<std::vector<double>> RandomForest::PredictProba(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredict(x.num_columns()));
  return image_.PredictFrame(*binner_, x, /*proba=*/true);
}

std::vector<double> RandomForest::FeatureImportances() const {
  std::vector<double> total = importances_;
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

}  // namespace eafe::ml
