#ifndef EAFE_ML_RANDOM_FOREST_H_
#define EAFE_ML_RANDOM_FOREST_H_

#include <memory>
#include <optional>
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
class RandomForest : public Model, public SharedBinnerModel {
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
    /// Bins per feature (2..256).
    size_t max_bins = 255;
  };

  RandomForest() : RandomForest(Options()) {}
  explicit RandomForest(const Options& options);

  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override { return options_.task; }

  // SharedBinnerModel: cross-validation bins the frame once and trains
  // every fold's forest (and each forest's trees) on row-id views.
  std::optional<FeatureBinner::Options> BinnerOptions() const override;
  Status FitBinned(std::shared_ptr<const FeatureBinner> binner,
                   const std::vector<double>& y,
                   const std::vector<size_t>& rows) override;
  Result<std::vector<double>> PredictBinnedRows(
      const std::vector<size_t>& rows) const override;

  /// Vote fraction for class 1 (binary classification) or mean prediction
  /// (regression).
  Result<std::vector<double>> PredictProba(const data::DataFrame& x) const;

  /// Mean impurity-decrease importance per feature, normalized to sum to 1
  /// (zeros if no split used any feature). The paper uses RF importances
  /// to pre-select features on very wide datasets.
  std::vector<double> FeatureImportances() const;

  /// The frame binner shared by all trees (null before a fit).
  const std::shared_ptr<const FeatureBinner>& binner() const {
    return binner_;
  }

  /// The flat image every tree is written into (empty before a fit).
  const FlatTreeModel& image() const { return image_.model(); }

  size_t num_trees() const { return image_.num_trees(); }
  size_t num_features() const { return num_features_; }
  /// Vote width of a classification fit; 0 for regression.
  int num_classes() const { return num_classes_; }
  const Options& options() const { return options_; }
  bool fitted() const { return image_.num_trees() > 0; }

 private:
  /// Bootstrap plans pre-drawn serially (samples in tree order, then each
  /// tree's seed) so parallel tree training is bit-identical to serial.
  struct TreePlan {
    std::vector<size_t> sample;
    uint64_t seed = 0;
  };

  DecisionTree::Options TreeOptions(uint64_t seed) const;
  Result<std::vector<TreePlan>> DrawPlans(const std::vector<size_t>* rows,
                                          size_t n);
  /// The fit over a row view of the binned frame (`rows` null means all
  /// frame rows).
  Status FitShared(std::shared_ptr<const FeatureBinner> binner,
                   const std::vector<double>& y,
                   const std::vector<size_t>* rows);
  Status CheckPredict(size_t num_columns) const;

  Options options_;
  size_t num_features_ = 0;
  int num_classes_ = 0;  ///< Classification vote width; 0 for regression.
  size_t max_features_ = 0;
  /// The frame binner shared by all trees.
  std::shared_ptr<const FeatureBinner> binner_;
  /// Every tree, written once at the end of the fit in tree order.
  FlatEnsemble image_;
  /// Per-feature impurity decrease summed over the trees in tree order
  /// (unnormalized).
  std::vector<double> importances_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_RANDOM_FOREST_H_
