#include "fpe/trainer.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/synthetic.h"

namespace eafe::fpe {
namespace {

FpeTrainingOptions QuickOptions() {
  FpeTrainingOptions options;
  options.dimensions = {16};
  options.schemes = {hashing::MinHashScheme::kCcws};
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 6;
  options.evaluator.rf_max_depth = 5;
  return options;
}

TEST(FpeTrainerTest, TrainsEndToEnd) {
  const auto datasets = data::MakePublicCollection(6, 0.6, 42);
  const auto result = TrainFpeModel(datasets, QuickOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->model.trained());
  EXPECT_GT(result->num_labeled_features, 10u);
  EXPECT_GT(result->num_positive_features, 0u);
  EXPECT_LT(result->num_positive_features, result->num_labeled_features);
  EXPECT_EQ(result->sweep.size(), 1u);
  EXPECT_EQ(result->selected.dimension, 16u);
}

TEST(FpeTrainerTest, SweepCoversAllCandidates) {
  const auto datasets = data::MakePublicCollection(6, 0.6, 43);
  FpeTrainingOptions options = QuickOptions();
  options.dimensions = {8, 16};
  options.schemes = {hashing::MinHashScheme::kCcws,
                     hashing::MinHashScheme::kIcws};
  const auto result = TrainFpeModel(datasets, options).ValueOrDie();
  EXPECT_EQ(result.sweep.size(), 4u);
  // Selection obeys Eq. 6: among feasible candidates, max recall.
  for (const FpeCandidateMetrics& candidate : result.sweep) {
    if (candidate.precision > 0.0 && candidate.recall < 1.0) {
      EXPECT_LE(candidate.recall, result.selected.recall);
    }
  }
}

// With no scheme given, Eq. 6 sweeps the four hash families at each
// dimension, in this order: neither the exact-quantile baseline, which is
// not a hash, nor LICWS, which selects ICWS's rows.
TEST(FpeTrainerTest, DefaultSweepCoversTheFourHashFamilies) {
  const auto datasets = data::MakePublicCollection(6, 0.6, 49);
  FpeTrainingOptions options = QuickOptions();
  options.schemes.clear();
  const auto result = TrainFpeModel(datasets, options).ValueOrDie();
  std::vector<hashing::MinHashScheme> swept;
  for (const FpeCandidateMetrics& candidate : result.sweep) {
    swept.push_back(candidate.scheme);
    EXPECT_EQ(candidate.dimension, 16u);
  }
  EXPECT_EQ(swept, (std::vector<hashing::MinHashScheme>{
                       hashing::MinHashScheme::kPlain,
                       hashing::MinHashScheme::kIcws,
                       hashing::MinHashScheme::kCcws,
                       hashing::MinHashScheme::kPcws}));
}

TEST(FpeTrainerTest, SplitsTrainAndValidation) {
  const auto datasets = data::MakePublicCollection(6, 0.6, 44);
  FpeTrainingOptions options = QuickOptions();
  options.validation_fraction = 0.4;
  const auto result = TrainFpeModel(datasets, options).ValueOrDie();
  EXPECT_GT(result.validation_features.size(), 0u);
  EXPECT_GT(result.training_features.size(), 0u);
  // The training split may shrink below its share of the pool because the
  // negative-margin denoising drops ambiguous negatives.
  EXPECT_LE(
      result.training_features.size() + result.validation_features.size(),
      result.num_labeled_features);
  EXPECT_GE(result.validation_features.size(),
            result.num_labeled_features * 2 / 5 - 1);
}

TEST(FpeTrainerTest, ExtraLabeledFeaturesAreMergedIn) {
  const auto datasets = data::MakePublicCollection(5, 0.6, 45);
  FpeTrainingOptions options = QuickOptions();
  const auto baseline = TrainFpeModel(datasets, options).ValueOrDie();

  // Append synthetic extra labeled features; the pool must grow.
  for (int i = 0; i < 10; ++i) {
    LabeledFeature f;
    f.values.assign(50, static_cast<double>(i));
    f.values[0] = -1.0;  // Non-constant.
    f.label = i % 2;
    f.score_gain = i % 2 ? 0.05 : -0.05;
    options.extra_labeled.push_back(std::move(f));
  }
  const auto augmented = TrainFpeModel(datasets, options).ValueOrDie();
  EXPECT_EQ(augmented.num_labeled_features,
            baseline.num_labeled_features + 10);
}

// With the threshold far below every gain, each public feature is a
// positive, and the only negatives are extra features whose gains sit
// inside the denoising band just below the threshold. Dropping the band
// would leave no training negative, so the training split stays whole,
// every feature with its values.
TEST(FpeTrainerTest, DenoisingNeverDropsEveryNegative) {
  const auto datasets = data::MakePublicCollection(4, 0.6, 48);
  FpeTrainingOptions options = QuickOptions();
  options.threshold = -100.0;
  for (int i = 0; i < 12; ++i) {
    LabeledFeature f;
    f.values.assign(60, static_cast<double>(i));
    f.values[0] = -1.0;  // Non-constant.
    f.score_gain = -100.005;
    options.extra_labeled.push_back(std::move(f));
  }
  const auto result = TrainFpeModel(datasets, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->training_features.size() +
                result->validation_features.size(),
            result->num_labeled_features);
  size_t negatives = 0;
  for (const LabeledFeature& f : result->training_features) {
    EXPECT_FALSE(f.values.empty());
    negatives += f.label == 0;
  }
  EXPECT_GT(negatives, 0u);
}

TEST(FpeTrainerTest, RejectsBadOptions) {
  const auto datasets = data::MakePublicCollection(4, 0.6, 46);
  FpeTrainingOptions options = QuickOptions();
  options.validation_fraction = 0.0;
  EXPECT_FALSE(TrainFpeModel(datasets, options).ok());
  EXPECT_FALSE(TrainFpeModel({}, QuickOptions()).ok());
}

TEST(FpeTrainerTest, EvaluateCandidateReportsMetrics) {
  const auto datasets = data::MakePublicCollection(6, 0.6, 47);
  const auto result = TrainFpeModel(datasets, QuickOptions()).ValueOrDie();
  FpeModel model;
  const auto metrics =
      EvaluateCandidate(result.training_features,
                        result.validation_features,
                        hashing::MinHashScheme::kPcws, 32, 7, &model)
          .ValueOrDie();
  EXPECT_EQ(metrics.scheme, hashing::MinHashScheme::kPcws);
  EXPECT_EQ(metrics.dimension, 32u);
  EXPECT_GE(metrics.recall, 0.0);
  EXPECT_LE(metrics.recall, 1.0);
  EXPECT_TRUE(model.trained());
}

}  // namespace
}  // namespace eafe::fpe
