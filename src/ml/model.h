#ifndef EAFE_ML_MODEL_H_
#define EAFE_ML_MODEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"

namespace eafe::ml {

/// Common interface for supervised models. A model handles exactly one
/// task type; `Fit` fails on inconsistent inputs rather than throwing.
/// Predictions are class ids (classification) or real values (regression),
/// matching Dataset's label convention.
class Model {
 public:
  virtual ~Model() = default;

  /// Trains on the feature frame and aligned labels. May be called again
  /// to refit from scratch.
  virtual Status Fit(const data::DataFrame& x,
                     const std::vector<double>& y) = 0;

  /// Predicts a label per row. Requires a prior successful Fit with the
  /// same column count.
  virtual Result<std::vector<double>> Predict(
      const data::DataFrame& x) const = 0;

  /// The task this model solves.
  virtual data::TaskType task() const = 0;
};

/// Mini-batch size of every learner trained by mini-batch Adam: the
/// logistic, SVM, MLP and ResNet models.
inline constexpr size_t kBatchSize = 32;

/// The learners' shared fit check: InvalidArgument unless `x` has one row
/// per label and at least one row.
Status CheckFitInput(const data::DataFrame& x, const std::vector<double>& y);

/// The learners' shared predict check: FailedPrecondition unless the model
/// is `fitted`, InvalidArgument unless `x` has the `num_features` columns
/// the model was fitted on.
Status CheckPredictInput(bool fitted, size_t num_features,
                         const data::DataFrame& x);
/// The same check for one input row of `width` values.
Status CheckPredictInput(bool fitted, size_t num_features, size_t width);

/// The base of the tree learners (DecisionTree, RandomForest,
/// GradientBoostedTrees): each trains through a shared pre-binned frame
/// via row-id views, with no fold or bootstrap materialization anywhere
/// on the path, and predicts through one flat image (flat_model.h).
/// Cross-validation probes for it with dynamic_cast: the frame is binned
/// exactly once per CV run and every fold (and every forest tree inside a
/// fold) reuses the same immutable codes.
///
/// The base owns the frame binner, the image and the feature count, and
/// implements the surface every tree learner shares: the fit preamble,
/// the binned-view check, and the predicts over the image. A subclass
/// implements FitBinned, which runs CheckBinnedView first and then writes
/// binner_, image_ and num_features_.
class SharedBinnerModel : public Model {
 public:
  /// Checks the inputs (CheckFitInput), bins `x` once (BinFrame) and
  /// trains on the all-rows view (FitBinned).
  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;

  /// Predictions through the image: majority vote (lowest class id on
  /// ties) or mean for a forest or tree, thresholded sigmoid or raw
  /// score for a booster.
  Result<std::vector<double>> Predict(const data::DataFrame& x) const override;

  /// P(class == 1) per row for binary classification (the mean leaf
  /// fraction of a forest or tree, the sigmoid of a booster's sum); the
  /// mean or raw score for regression.
  Result<std::vector<double>> PredictProba(const data::DataFrame& x) const;

  /// A kMaxBins binner fitted on `x`, for FitBinned calls to share.
  static Result<std::shared_ptr<const FeatureBinner>> BinFrame(
      const data::DataFrame& x);

  /// Trains on the rows `rows` of the binned frame. `y` holds labels for
  /// every frame row, indexed absolutely; `rows` may repeat (bootstrap is
  /// pure row selection) unless the learner says otherwise. A fit that
  /// fails leaves the model as it was.
  virtual Status FitBinned(std::shared_ptr<const FeatureBinner> binner,
                           const std::vector<double>& y,
                           const std::vector<size_t>& rows) = 0;

  /// Predicts rows of the fitted binner's frame by id — held-out fold
  /// rows are rows of the same frame, so CV scoring needs no encoding.
  /// FailedPrecondition without an image.
  Result<std::vector<double>> PredictBinnedRows(
      const std::vector<size_t>& rows) const;

  /// The saved form of the fit: a copy of the image plus the binner's
  /// cuts, so a loaded model encodes raw frames on its own.
  /// FailedPrecondition without an image.
  Result<FlatTreeModel> Flatten() const;

  /// The frame binner the fit trained through (null before a fit).
  const std::shared_ptr<const FeatureBinner>& binner() const {
    return binner_;
  }
  /// Every tree of the fit (empty before a fit).
  const FlatTreeModel& image() const { return image_.model(); }
  size_t num_trees() const { return image_.num_trees(); }
  size_t num_features() const { return num_features_; }
  bool fitted() const { return num_features_ > 0; }

 protected:
  /// The binned-view check every FitBinned runs first: InvalidArgument
  /// unless `binner` is fitted, `y` holds one label per binned row and at
  /// least one, and `rows` is nonempty with every id in range.
  static Status CheckBinnedView(const FeatureBinner* binner,
                                const std::vector<double>& y,
                                const std::vector<size_t>& rows);

  /// Leaf payloads (`proba` or value) of every row of a frame that passed
  /// the predict check, through the image. DecisionTree overrides it for
  /// the exact oracle, which has no image.
  virtual std::vector<double> PredictFrame(const data::DataFrame& x,
                                           bool proba) const;

  std::shared_ptr<const FeatureBinner> binner_;
  FlatEnsemble image_;
  /// Columns of the fitted frame; 0 until a fit succeeds.
  size_t num_features_ = 0;

 private:
  /// FailedPrecondition unless the image holds a tree.
  Status CheckImage() const;
};

using ModelFactory = std::function<std::unique_ptr<Model>()>;

}  // namespace eafe::ml

#endif  // EAFE_ML_MODEL_H_
