#include "afe/search.h"

#include <gtest/gtest.h>

#include "afe/nfs.h"
#include "afe/random_search.h"
#include "data/registry.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

data::Dataset SmallTarget() {
  data::MaterializeOptions options;
  options.max_samples = 200;
  options.max_features = 6;
  return data::MakeTargetDatasetByName("PimaIndian", options).ValueOrDie();
}

SearchOptions QuickSearch() {
  SearchOptions options;
  options.epochs = 3;
  options.steps_per_agent = 2;
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 5;
  options.evaluator.rf_max_depth = 4;
  options.seed = 11;
  return options;
}

TEST(BuildAgentStateTest, EncodesLastActionOneHot) {
  const auto state = BuildAgentState(3, 0.25, 4, 0.5);
  ASSERT_EQ(state.size(), kAgentStateDim);
  for (size_t i = 0; i < kNumOperators; ++i) {
    EXPECT_DOUBLE_EQ(state[i], i == 3 ? 1.0 : 0.0);
  }
  EXPECT_DOUBLE_EQ(state[kNumOperators], 0.5);      // 4 / 8.
  EXPECT_DOUBLE_EQ(state[kNumOperators + 1], 0.25);
  EXPECT_DOUBLE_EQ(state[kNumOperators + 2], 0.5);
}

TEST(BuildAgentStateTest, NoLastActionIsAllZeroOneHot) {
  const auto state = BuildAgentState(-1, 0.0, 1, 0.0);
  for (size_t i = 0; i < kNumOperators; ++i) {
    EXPECT_DOUBLE_EQ(state[i], 0.0);
  }
}

TEST(RandomSearchTest, RunsAndImprovesOrMatchesBase) {
  RandomSearch search(QuickSearch());
  const SearchResult result = search.Run(SmallTarget()).ValueOrDie();
  EXPECT_EQ(result.method, "AutoFS_R");
  EXPECT_GE(result.best_score, result.base_score - 0.02);  // Honest re-scoring can dip slightly.
  EXPECT_GE(result.search_score, result.base_score - 1e-9);
  EXPECT_EQ(result.curve.size(), 3u);
  EXPECT_GT(result.downstream_evaluations, 0u);
  EXPECT_GE(result.features_generated, result.features_kept);
  EXPECT_TRUE(result.best_dataset.Validate().ok());
  EXPECT_GE(result.best_dataset.num_features(),
            SmallTarget().num_features());
}

TEST(RandomSearchTest, DeterministicGivenSeed) {
  RandomSearch a(QuickSearch());
  RandomSearch b(QuickSearch());
  const SearchResult ra = a.Run(SmallTarget()).ValueOrDie();
  const SearchResult rb = b.Run(SmallTarget()).ValueOrDie();
  EXPECT_DOUBLE_EQ(ra.best_score, rb.best_score);
  EXPECT_EQ(ra.downstream_evaluations, rb.downstream_evaluations);
}

TEST(NfsSearchTest, RunsAndTracksAccounting) {
  NfsSearch search(QuickSearch());
  const SearchResult result = search.Run(SmallTarget()).ValueOrDie();
  EXPECT_EQ(result.method, "NFS");
  EXPECT_GE(result.best_score, result.base_score - 0.02);  // Honest re-scoring can dip slightly.
  EXPECT_GE(result.search_score, result.base_score - 1e-9);
  // +1 for the base evaluation.
  EXPECT_EQ(result.downstream_evaluations, result.features_evaluated + 1);
  EXPECT_EQ(result.curve.size(), 3u);
  // Curve is monotone in best score.
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i].best_score, result.curve[i - 1].best_score);
    EXPECT_GE(result.curve[i].cumulative_evaluations,
              result.curve[i - 1].cumulative_evaluations);
  }
}

TEST(NfsSearchTest, EvaluatesEveryGeneratedCandidate) {
  // The defining inefficiency of NFS (Table I): no pre-filtering.
  NfsSearch search(QuickSearch());
  const SearchResult result = search.Run(SmallTarget()).ValueOrDie();
  EXPECT_EQ(result.features_generated, result.features_evaluated);
}

TEST(NfsSearchTest, RejectsInvalidDataset) {
  NfsSearch search(QuickSearch());
  data::Dataset bad;
  EXPECT_FALSE(search.Run(bad).ok());
}

TEST(SearchOptionsTest, TimingFieldsPopulated) {
  NfsSearch search(QuickSearch());
  const SearchResult result = search.Run(SmallTarget()).ValueOrDie();
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.evaluation_seconds, 0.0);
  // evaluation_seconds is cumulative across pipeline workers, so with
  // overlapping evaluations it can exceed the wall clock — but never by
  // more than the worker count.
  EXPECT_GE(result.total_seconds * static_cast<double>(
                                       runtime::GlobalThreads()),
            result.evaluation_seconds * 0.5);
}

}  // namespace
}  // namespace eafe::afe
