#ifndef EAFE_ML_RANDOM_FOREST_H_
#define EAFE_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "ml/decision_tree.h"
#include "ml/model.h"

namespace eafe::ml {

/// Bagged random forest over CART trees — the paper's downstream task
/// model (following NFS). Classification predicts by majority vote,
/// regression by mean; PredictProba returns the vote fraction for class 1.
///
/// Every fit bins the frame exactly once and every tree trains on
/// histograms through a row-id view of the shared codes: bootstrap is
/// pure row selection, so there is no per-tree SelectRows materialization
/// and no per-tree re-binning anywhere in a fit. The trees live only in
/// one flat image (flat_model.h), written in tree order at the end of the
/// fit: fresh frames encode once and held-out fold rows gather their
/// codes once, then every tree routes on uint8 bin comparisons through
/// the one walk.
class RandomForest : public SharedBinnerModel {
 public:
  struct Options {
    data::TaskType task = data::TaskType::kClassification;
    size_t num_trees = 10;
    size_t max_depth = 8;
    size_t min_samples_leaf = 2;
    /// Features per split; 0 means sqrt(num_features) for classification
    /// and num_features/3 for regression (the standard defaults).
    size_t max_features = 0;
    /// Bootstrap sample size as a fraction of the training set.
    double subsample = 1.0;
    uint64_t seed = 1;
  };

  RandomForest() : RandomForest(Options()) {}
  explicit RandomForest(const Options& options);

  // Cross-validation bins the frame once and trains every fold's forest
  // (and each forest's trees) on row-id views.
  Status FitBinned(std::shared_ptr<const FeatureBinner> binner,
                   const std::vector<double>& y,
                   const std::vector<size_t>& rows) override;
  data::TaskType task() const override { return options_.task; }

  /// Mean impurity-decrease importance per feature, normalized to sum to 1
  /// (zeros if no split used any feature). The paper uses RF importances
  /// to pre-select features on very wide datasets.
  std::vector<double> FeatureImportances() const;

  /// Vote width of a classification fit; 0 for regression.
  int num_classes() const { return num_classes_; }
  const Options& options() const { return options_; }

 private:
  /// Bootstrap plans pre-drawn serially (samples in tree order, then each
  /// tree's seed) so parallel tree training is bit-identical to serial.
  struct TreePlan {
    std::vector<size_t> sample;
    uint64_t seed = 0;
  };

  DecisionTree::Options TreeOptions(uint64_t seed, size_t max_features) const;
  std::vector<TreePlan> DrawPlans(const std::vector<size_t>& rows) const;

  Options options_;
  int num_classes_ = 0;  ///< Classification vote width; 0 for regression.
  /// Per-feature impurity decrease summed over the trees in tree order
  /// (unnormalized).
  std::vector<double> importances_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_RANDOM_FOREST_H_
