#ifndef EAFE_ML_FEATURE_SELECTION_H_
#define EAFE_ML_FEATURE_SELECTION_H_

#include <vector>

#include "core/status.h"
#include "data/dataframe.h"

namespace eafe::ml {

/// Options for importance-based feature pre-selection. The paper applies
/// this step to the very wide targets (gisette 5000 features, AP. ovary
/// 10936) before running AFE: "E-AFE first conducts feature selection of
/// less than maximum features according to the feature importance via RF
/// on the raw target datasets."
struct PreselectOptions {
  /// Keep at most this many features (ties broken by original order).
  size_t max_features = 48;
};

/// Column indices of the top-`max_features` features by the impurity
/// importance of a default-options random forest, in original column
/// order.
Result<std::vector<size_t>> TopFeatureIndices(const data::Dataset& dataset,
                                              const PreselectOptions& options);

/// The dataset restricted to its top-importance features. Datasets
/// already within the cap are returned unchanged.
Result<data::Dataset> PreselectFeatures(const data::Dataset& dataset,
                                        const PreselectOptions& options);

}  // namespace eafe::ml

#endif  // EAFE_ML_FEATURE_SELECTION_H_
