#include <gtest/gtest.h>

#include <cstdint>

#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

// The saved form of a tree learner (SharedBinnerModel::Flatten), which
// the model container serializes.

namespace eafe::serve {
namespace {

data::Dataset MakeData(data::TaskType task, uint64_t seed) {
  data::SyntheticSpec spec;
  spec.task = task;
  spec.num_samples = 140;
  spec.num_features = 5;
  spec.seed = seed;
  return data::MakeSynthetic(spec).ValueOrDie();
}

TEST(FlatModelTest, FlattenForestProducesValidatedArrays) {
  ml::RandomForest forest;
  const data::Dataset data = MakeData(data::TaskType::kClassification, 41);
  ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());
  const ml::FlatTreeModel model = forest.Flatten().ValueOrDie();

  EXPECT_EQ(model.kind, ml::EnsembleKind::kForestVote);
  EXPECT_EQ(model.task, data::TaskType::kClassification);
  EXPECT_EQ(model.num_trees(), forest.num_trees());
  EXPECT_EQ(model.num_features, 5u);
  EXPECT_GE(model.num_classes, 2u);
  EXPECT_TRUE(model.Validate().ok());

  // The saved nodes are a copy of the image the forest predicts through.
  const ml::FlatTreeModel& image = forest.image();
  EXPECT_EQ(model.tree_offsets, image.tree_offsets);
  EXPECT_EQ(model.feature, image.feature);
  EXPECT_EQ(model.split_bin, image.split_bin);
  EXPECT_EQ(model.left, image.left);
  EXPECT_EQ(model.right, image.right);
  EXPECT_EQ(model.value, image.value);
  EXPECT_EQ(model.proba, image.proba);
  EXPECT_TRUE(image.cuts.empty());  // The in-memory image uses the binner.

  // The stored cuts are the fitted binner's thresholds, feature by
  // feature — the loaded model can encode raw frames on its own.
  const auto& binner = forest.binner();
  ASSERT_NE(binner, nullptr);
  for (uint32_t f = 0; f < model.num_features; ++f) {
    const uint64_t count = model.cut_offsets[f + 1] - model.cut_offsets[f];
    ASSERT_EQ(count, binner->num_bins(f) - 1);
    for (uint64_t c = 0; c < count; ++c) {
      EXPECT_EQ(model.cuts[model.cut_offsets[f] + c],
                binner->cut(f, static_cast<size_t>(c)));
    }
  }
}

TEST(FlatModelTest, FlattenGbdtCarriesBoosterMeta) {
  ml::GradientBoostedTrees::Options options;
  options.task = data::TaskType::kRegression;
  options.rounds = 7;
  options.learning_rate = 0.3;
  ml::GradientBoostedTrees booster(options);
  const data::Dataset data = MakeData(data::TaskType::kRegression, 42);
  ASSERT_TRUE(booster.Fit(data.features, data.labels).ok());
  const ml::FlatTreeModel model = booster.Flatten().ValueOrDie();

  EXPECT_EQ(model.kind, ml::EnsembleKind::kBoostedSum);
  EXPECT_EQ(model.num_trees(), 7u);
  EXPECT_EQ(model.base_score, booster.base_score());
  EXPECT_EQ(model.learning_rate, 0.3);
  EXPECT_TRUE(model.Validate().ok());
  EXPECT_EQ(model.feature, booster.image().feature);
  EXPECT_EQ(model.value, booster.image().value);
}

TEST(FlatModelTest, ChildOffsetsAreAbsoluteAndForward) {
  ml::RandomForest::Options options;
  options.task = data::TaskType::kRegression;
  ml::RandomForest forest(options);
  const data::Dataset data = MakeData(data::TaskType::kRegression, 43);
  ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());
  const ml::FlatTreeModel model = forest.Flatten().ValueOrDie();
  for (size_t t = 0; t < model.num_trees(); ++t) {
    const uint32_t begin = model.tree_offsets[t];
    const uint32_t end = model.tree_offsets[t + 1];
    ASSERT_LT(begin, end);
    for (uint32_t i = begin; i < end; ++i) {
      if (model.feature[i] < 0) continue;
      EXPECT_GT(model.left[i], static_cast<int32_t>(i));
      EXPECT_GT(model.right[i], static_cast<int32_t>(i));
      EXPECT_LT(static_cast<uint32_t>(model.left[i]), end);
      EXPECT_LT(static_cast<uint32_t>(model.right[i]), end);
    }
  }
}

// An unfitted model and the exact oracle tree have no image to save.
TEST(FlatModelTest, UnfittedModelsDoNotFlatten) {
  EXPECT_EQ(ml::RandomForest().Flatten().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ml::GradientBoostedTrees().Flatten().status().code(),
            StatusCode::kFailedPrecondition);
  const data::Dataset data = MakeData(data::TaskType::kClassification, 44);
  ml::DecisionTree exact;
  ASSERT_TRUE(exact.FitExact(data.features, data.labels).ok());
  EXPECT_EQ(exact.Flatten().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace eafe::serve
