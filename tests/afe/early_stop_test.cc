// Early-stopping behaviour shared by all searches: a run quits after
// `early_stop_patience` consecutive epochs that accept nothing; patience
// 0 always runs the full budget.

#include <gtest/gtest.h>

#include "afe/eafe.h"
#include "afe/nfs.h"
#include "afe/random_search.h"
#include "core/rng.h"
#include "data/registry.h"

namespace eafe::afe {
namespace {

/// Pure noise columns and random labels. Engineered features still win
/// fold noise here now and then: at a margin of 0.05 each driver keeps
/// one feature. The margin of 1.0 below keeps every one out.
data::Dataset NoiseDataset() {
  Rng rng(41);
  const size_t n = 80;
  data::Dataset dataset;
  dataset.name = "noise";
  dataset.task = data::TaskType::kClassification;
  for (int f = 0; f < 3; ++f) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.Normal();
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("n" + std::to_string(f),
                                            values))
                    .ok());
  }
  dataset.labels.resize(n);
  for (double& y : dataset.labels) {
    y = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  return dataset;
}

SearchOptions Options(size_t patience) {
  SearchOptions options;
  options.epochs = 10;
  options.steps_per_agent = 2;
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 4;
  options.evaluator.rf_max_depth = 3;
  // No gain on a score in [0, 1] can exceed a margin of 1.0, so no
  // epoch accepts anything.
  options.accept_margin = 1.0;
  options.early_stop_patience = patience;
  options.seed = 77;
  return options;
}

// A run that never accepts stops after exactly `patience` epochs, for
// every patience and every driver: epoch 0 is a stale epoch too.
TEST(EarlyStopTest, RandomSearchStopsAfterPatienceStaleEpochs) {
  for (size_t patience : {size_t{1}, size_t{2}, size_t{3}}) {
    const auto result =
        RandomSearch(Options(patience)).Run(NoiseDataset()).ValueOrDie();
    EXPECT_EQ(result.features_kept, 0u);
    EXPECT_EQ(result.curve.size(), patience);
  }
}

TEST(EarlyStopTest, NfsStopsAfterPatienceStaleEpochs) {
  for (size_t patience : {size_t{1}, size_t{2}, size_t{3}}) {
    const auto result =
        NfsSearch(Options(patience)).Run(NoiseDataset()).ValueOrDie();
    EXPECT_EQ(result.features_kept, 0u);
    EXPECT_EQ(result.curve.size(), patience);
  }
}

TEST(EarlyStopTest, EafeRandomDropStopsAfterPatienceStaleEpochs) {
  for (size_t patience : {size_t{1}, size_t{2}, size_t{3}}) {
    EafeSearch::Options options;
    options.search = Options(patience);
    options.variant = EafeSearch::Variant::kRandomDrop;
    const auto result = EafeSearch(options).Run(NoiseDataset()).ValueOrDie();
    EXPECT_EQ(result.features_kept, 0u);
    EXPECT_EQ(result.curve.size(), patience);
  }
}

TEST(EarlyStopTest, ZeroPatienceRunsFullBudget) {
  RandomSearch search(Options(0));
  const auto result = search.Run(NoiseDataset()).ValueOrDie();
  EXPECT_EQ(result.curve.size(), 10u);
}

TEST(EarlyStopTest, AcceptingRunsKeepGoing) {
  // On a learnable dataset with a generous margin, acceptances reset the
  // patience clock, so the run lasts longer than the patience window.
  data::MaterializeOptions mat;
  mat.max_samples = 200;
  mat.max_features = 6;
  const data::Dataset dataset =
      data::MakeTargetDatasetByName("credit-a", mat).ValueOrDie();
  SearchOptions options = Options(2);
  options.accept_margin = 0.0;
  RandomSearch search(options);
  const auto result = search.Run(dataset).ValueOrDie();
  if (result.features_kept > 0) {
    EXPECT_GT(result.curve.size(), 2u);
  }
}

}  // namespace
}  // namespace eafe::afe
