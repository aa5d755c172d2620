#ifndef EAFE_SERVE_FLAT_MODEL_H_
#define EAFE_SERVE_FLAT_MODEL_H_

#include "core/status.h"
#include "ml/flat_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

namespace eafe::serve {

/// The saved form of a fitted forest: a copy of the flat image the forest
/// already holds, plus its binner's cuts, so a loaded model encodes raw
/// frames on its own. Fails only for an unfitted forest.
Result<ml::FlatTreeModel> FlattenForest(const ml::RandomForest& forest);

/// The saved form of a fitted booster: its image plus its binner's cuts.
Result<ml::FlatTreeModel> FlattenGbdt(
    const ml::GradientBoostedTrees& booster);

}  // namespace eafe::serve

#endif  // EAFE_SERVE_FLAT_MODEL_H_
