#ifndef EAFE_ML_MODEL_H_
#define EAFE_ML_MODEL_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"

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

/// Capability interface for models that can train and predict through a
/// shared pre-binned frame via row-id views — no fold or bootstrap
/// materialization anywhere on the path. Cross-validation probes for it
/// with dynamic_cast: when supported, the frame is binned exactly once
/// per CV run and every fold (and every forest tree inside a fold)
/// reuses the same immutable codes.
class SharedBinnerModel {
 public:
  virtual ~SharedBinnerModel() = default;

  /// Options of the binner this configuration trains through, or nullopt
  /// when it cannot share one (e.g. the exact split strategy). Callers
  /// compare them with a binner's options() before reusing its columns.
  virtual std::optional<FeatureBinner::Options> BinnerOptions() const = 0;

  /// Bins `x` with BinnerOptions() for FitBinned sharing. Returns null
  /// (with OK status) when this configuration cannot share, and the
  /// caller should fall back to materialized Fit/Predict.
  Result<std::shared_ptr<const FeatureBinner>> BinFrame(
      const data::DataFrame& x) const;

  /// Trains on the rows `rows` of the binned frame. `y` holds labels for
  /// every frame row, indexed absolutely; `rows` may repeat (bootstrap is
  /// pure row selection).
  virtual Status FitBinned(std::shared_ptr<const FeatureBinner> binner,
                           const std::vector<double>& y,
                           const std::vector<size_t>& rows) = 0;

  /// Predicts rows of the fitted binner's frame by id — held-out fold
  /// rows are rows of the same frame, so CV scoring needs no encoding.
  virtual Result<std::vector<double>> PredictBinnedRows(
      const std::vector<size_t>& rows) const = 0;
};

using ModelFactory = std::function<std::unique_ptr<Model>()>;

}  // namespace eafe::ml

#endif  // EAFE_ML_MODEL_H_
