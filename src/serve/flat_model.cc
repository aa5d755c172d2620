#include "serve/flat_model.h"

#include <memory>

#include "ml/feature_binner.h"

namespace eafe::serve {
namespace {

/// `image` with `binner`'s cuts appended, feature by feature.
ml::FlatTreeModel WithCuts(ml::FlatTreeModel image,
                           const ml::FeatureBinner& binner) {
  image.cut_offsets.assign(1, 0);
  for (size_t f = 0; f < binner.num_features(); ++f) {
    for (size_t b = 0; b + 1 < binner.num_bins(f); ++b) {
      image.cuts.push_back(binner.cut(f, b));
    }
    image.cut_offsets.push_back(image.cuts.size());
  }
  return image;
}

}  // namespace

Result<ml::FlatTreeModel> FlattenForest(const ml::RandomForest& forest) {
  if (!forest.fitted()) {
    return Status::FailedPrecondition("forest is not fitted");
  }
  return WithCuts(forest.image(), *forest.binner());
}

Result<ml::FlatTreeModel> FlattenGbdt(
    const ml::GradientBoostedTrees& booster) {
  if (booster.num_trees() == 0) {
    return Status::FailedPrecondition("booster is not fitted");
  }
  return WithCuts(booster.image(), *booster.binner());
}

}  // namespace eafe::serve
