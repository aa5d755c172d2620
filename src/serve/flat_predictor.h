#ifndef EAFE_SERVE_FLAT_PREDICTOR_H_
#define EAFE_SERVE_FLAT_PREDICTOR_H_

#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"

namespace eafe::serve {

/// Batch inference over a loaded container (model_store.h): the owner of
/// one model packed for the walk (ml::FlatEnsemble), its +inf-padded
/// cuts, and per-instance scratch.
///
/// The walk and the aggregation are the ones RandomForest,
/// GradientBoostedTrees and DecisionTree predict through, and rows encode
/// through the same ml::EncodeRows over the same cuts, so served
/// predictions are bit-identical to the in-memory model's. Scratch is
/// grown once and reused across calls, which is why Predict is
/// non-const; a predictor is cheap to construct but not safe to share
/// across threads.
class FlatPredictor {
 public:
  /// Validates the model (FlatTreeModel::Validate), pads its cuts and
  /// packs its trees.
  static Result<FlatPredictor> Create(ml::FlatTreeModel model);

  /// Ensemble prediction per row: majority vote / mean for forests,
  /// thresholded sigmoid score / raw score for boosters.
  Result<std::vector<double>> Predict(const data::DataFrame& x);

  /// P(class == 1) for classification, mean/raw score for regression —
  /// mirrors ml::SharedBinnerModel::PredictProba.
  Result<std::vector<double>> PredictProba(const data::DataFrame& x);

  const ml::FlatTreeModel& model() const { return ensemble_.model(); }

 private:
  FlatPredictor() = default;

  /// Checks the column count and encodes `x` into scratch_.codes.
  Status Encode(const data::DataFrame& x);

  ml::FlatEnsemble ensemble_;
  std::vector<ml::PaddedCuts> cuts_;
  ml::WalkScratch scratch_;
};

}  // namespace eafe::serve

#endif  // EAFE_SERVE_FLAT_PREDICTOR_H_
