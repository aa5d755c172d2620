#ifndef EAFE_ML_CROSS_VALIDATION_H_
#define EAFE_ML_CROSS_VALIDATION_H_

#include <functional>
#include <memory>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"
#include "ml/model.h"

namespace eafe::ml {

/// Classification folds are stratified by class when every class has at
/// least `folds` members; other tasks and smaller classes take plain
/// K-fold.
struct CvOptions {
  size_t folds = 5;
  uint64_t seed = 1;
};

/// K-fold cross-validated task score (weighted F1 for classification,
/// 1-RAE for regression): fits a fresh model from `factory` on each
/// training fold and scores on its held-out fold; returns the mean.
/// This is the paper's A_T(F, y) feature-set evaluation.
///
/// Folds run concurrently on the global runtime pool (serially when
/// --threads=1), so `factory` may be invoked from several threads at once
/// and must not mutate shared state. Fold assignment and the mean are
/// computed in fold order: results are identical at any thread count.
///
/// `frame_bins`, when given, is a binner fitted on the leading columns of
/// `dataset.features` (a search's epoch frame, to which the candidate is
/// appended last). A tree learner then bins only the columns past it
/// (FeatureBinner::Extend) instead of the whole table; the scores are
/// bit-identical either way. Other models ignore it.
Result<double> CrossValidateScore(const ModelFactory& factory,
                                  const data::Dataset& dataset,
                                  const CvOptions& options = {},
                                  const FeatureBinner* frame_bins = nullptr);

/// Per-fold scores (same protocol) for callers needing dispersion.
Result<std::vector<double>> CrossValidateScores(
    const ModelFactory& factory, const data::Dataset& dataset,
    const CvOptions& options = {}, const FeatureBinner* frame_bins = nullptr);

}  // namespace eafe::ml

#endif  // EAFE_ML_CROSS_VALIDATION_H_
