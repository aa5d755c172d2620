#include "ml/feature_selection.h"

#include <algorithm>
#include <numeric>

#include "ml/random_forest.h"

namespace eafe::ml {

Result<std::vector<size_t>> TopFeatureIndices(
    const data::Dataset& dataset, const PreselectOptions& options) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  if (options.max_features == 0) {
    return Status::InvalidArgument("max_features must be positive");
  }
  const size_t n = dataset.features.num_columns();
  std::vector<size_t> indices(std::min(options.max_features, n));
  if (n <= options.max_features) {
    std::iota(indices.begin(), indices.end(), size_t{0});
    return indices;
  }
  RandomForest::Options forest_options;
  forest_options.task = dataset.task;
  RandomForest forest(forest_options);
  EAFE_RETURN_NOT_OK(forest.Fit(dataset.features, dataset.labels));
  const std::vector<double> importances = forest.FeatureImportances();

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return importances[a] > importances[b];
  });
  order.resize(options.max_features);
  std::sort(order.begin(), order.end());  // Preserve original order.
  return order;
}

Result<data::Dataset> PreselectFeatures(const data::Dataset& dataset,
                                        const PreselectOptions& options) {
  if (dataset.features.num_columns() <= options.max_features) {
    return dataset;
  }
  EAFE_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                        TopFeatureIndices(dataset, options));
  data::Dataset out;
  out.name = dataset.name;
  out.task = dataset.task;
  out.labels = dataset.labels;
  out.features = dataset.features.SelectColumns(indices);
  return out;
}

}  // namespace eafe::ml
