#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

DecisionTree::Options RandomForest::TreeOptions(uint64_t seed,
                                               size_t max_features) const {
  DecisionTree::Options tree_options;
  tree_options.task = options_.task;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = max_features;
  tree_options.seed = seed;
  return tree_options;
}

std::vector<RandomForest::TreePlan> RandomForest::DrawPlans(
    const std::vector<size_t>& rows) const {
  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(std::round(options_.subsample *
                                        static_cast<double>(rows.size()))));
  // All randomness is drawn serially up front (bootstrap samples in tree
  // order, then each tree's seed), so the fit is bit-identical to the
  // serial path at any thread count; only the tree training itself fans
  // out. Samples hold absolute frame row ids: draws index into `rows` and
  // map through it (a plain fit's all-rows view maps each draw to itself).
  Rng rng(options_.seed);
  std::vector<TreePlan> plans(options_.num_trees);
  for (TreePlan& plan : plans) {
    plan.sample.resize(sample_size);
    for (size_t& s : plan.sample) {
      s = rows[rng.UniformInt(static_cast<uint64_t>(rows.size()))];
    }
    plan.seed = rng.Next();
  }
  return plans;
}

Status RandomForest::FitBinned(std::shared_ptr<const FeatureBinner> binner,
                               const std::vector<double>& y,
                               const std::vector<size_t>& rows) {
  EAFE_RETURN_NOT_OK(CheckBinnedView(binner.get(), y, rows));
  if (options_.num_trees == 0) {
    return Status::InvalidArgument("num_trees must be positive");
  }
  if (options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  EAFE_ASSIGN_OR_RETURN(BinnedLabels labels,
                        BinnedLabels::Create(options_.task, y));
  std::vector<TreePlan> plans = DrawPlans(rows);
  const size_t num_features = binner->num_features();
  const size_t max_features = ResolveMaxFeatures(options_, num_features);

  // Every tree trains through a row-id view of the shared frame codes:
  // bootstrap is pure row selection, so nothing is materialized or
  // re-binned per tree. When the fit already runs on a pool worker (a
  // cross-validation fold), the trees train inline rather than
  // oversubscribing.
  std::vector<DecisionTree> trees(options_.num_trees);
  runtime::ParallelFor(
      runtime::GlobalPool(), options_.num_trees,
      [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          trees[t] = DecisionTree(TreeOptions(plans[t].seed, max_features));
          trees[t].GrowBinned(binner, y, std::move(plans[t].sample), labels);
        }
      });
  binner_ = std::move(binner);
  num_features_ = num_features;
  num_classes_ = labels.num_classes;
  // The trees trained in parallel; they enter the image, and their
  // importances the sum, in tree order.
  image_ = FlatEnsemble(EnsembleKind::kForestVote, options_.task,
                        num_features, num_classes_);
  importances_.assign(num_features, 0.0);
  for (const DecisionTree& tree : trees) {
    tree.AppendTo(&image_);
    const std::vector<double>& imp = tree.feature_importances();
    for (size_t f = 0; f < num_features; ++f) importances_[f] += imp[f];
  }
  return Status::OK();
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
