#include "serve/flat_predictor.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/synthetic.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"
#include "serve/model_store.h"

namespace eafe::serve {
namespace {

data::Dataset MakeData(data::TaskType task, uint64_t seed,
                       size_t rows = 150) {
  data::SyntheticSpec spec;
  spec.task = task;
  spec.num_samples = rows;
  spec.num_features = 7;
  spec.seed = seed;
  return data::MakeSynthetic(spec).ValueOrDie();
}

void ExpectBitIdentical(const std::vector<double>& got,
                        const std::vector<double>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "row " << i;
  }
}

// Property: for any seed and task, the flat engine's Predict and
// PredictProba over the serialized round trip match the in-memory model
// bit for bit on fresh query frames.
TEST(FlatPredictorTest, ForestBitIdenticalAcrossSeeds) {
  for (const data::TaskType task :
       {data::TaskType::kClassification, data::TaskType::kRegression}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ml::RandomForest::Options options;
      options.task = task;
      options.num_trees = 5;
      options.seed = seed;
      ml::RandomForest forest(options);
      const data::Dataset data = MakeData(task, seed);
      ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());

      const LoadedModel loaded =
          DeserializeModel(SerializeForest(forest).ValueOrDie())
              .ValueOrDie();
      FlatPredictor predictor =
          FlatPredictor::Create(*loaded.tree).ValueOrDie();
      const data::Dataset query = MakeData(task, seed + 100);
      ExpectBitIdentical(predictor.Predict(query.features).ValueOrDie(),
                         forest.Predict(query.features).ValueOrDie());
      ExpectBitIdentical(
          predictor.PredictProba(query.features).ValueOrDie(),
          forest.PredictProba(query.features).ValueOrDie());
    }
  }
}

TEST(FlatPredictorTest, GbdtBitIdenticalAcrossSeeds) {
  for (const data::TaskType task :
       {data::TaskType::kClassification, data::TaskType::kRegression}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ml::GradientBoostedTrees::Options options;
      options.task = task;
      options.rounds = 6;
      options.seed = seed;
      ml::GradientBoostedTrees booster(options);
      const data::Dataset data = MakeData(task, seed);
      ASSERT_TRUE(booster.Fit(data.features, data.labels).ok());

      const LoadedModel loaded =
          DeserializeModel(SerializeGbdt(booster).ValueOrDie())
              .ValueOrDie();
      FlatPredictor predictor =
          FlatPredictor::Create(*loaded.tree).ValueOrDie();
      const data::Dataset query = MakeData(task, seed + 200);
      ExpectBitIdentical(predictor.Predict(query.features).ValueOrDie(),
                         booster.Predict(query.features).ValueOrDie());
      ExpectBitIdentical(
          predictor.PredictProba(query.features).ValueOrDie(),
          booster.PredictProba(query.features).ValueOrDie());
    }
  }
}

TEST(FlatPredictorTest, ScratchBuffersSurviveBatchSizeChanges) {
  ml::RandomForest forest;
  const data::Dataset data =
      MakeData(data::TaskType::kClassification, 31);
  ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());
  FlatPredictor predictor =
      FlatPredictor::Create(
          DeserializeModel(SerializeForest(forest).ValueOrDie())
              .ValueOrDie()
              .tree.value())
          .ValueOrDie();
  // Shrinking and regrowing the batch reuses the scratch buffers; every
  // batch must still match the reference prediction.
  for (const size_t rows : {200u, 20u, 10u, 64u}) {
    const data::Dataset query =
        MakeData(data::TaskType::kClassification, 32, rows);
    ExpectBitIdentical(predictor.Predict(query.features).ValueOrDie(),
                       forest.Predict(query.features).ValueOrDie());
  }
}

TEST(FlatPredictorTest, FeatureCountMismatchRejected) {
  ml::RandomForest forest;
  const data::Dataset data =
      MakeData(data::TaskType::kClassification, 33);
  ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());
  FlatPredictor predictor =
      FlatPredictor::Create(
          DeserializeModel(SerializeForest(forest).ValueOrDie())
              .ValueOrDie()
              .tree.value())
          .ValueOrDie();
  data::SyntheticSpec narrow;
  narrow.num_features = 3;
  narrow.seed = 34;
  const data::Dataset query = data::MakeSynthetic(narrow).ValueOrDie();
  EXPECT_FALSE(predictor.Predict(query.features).ok());
}

TEST(FlatPredictorTest, StructurallyBrokenModelsRejected) {
  ml::RandomForest forest;
  const data::Dataset data =
      MakeData(data::TaskType::kClassification, 35);
  ASSERT_TRUE(forest.Fit(data.features, data.labels).ok());
  const ml::FlatTreeModel good =
      DeserializeModel(SerializeForest(forest).ValueOrDie())
          .ValueOrDie()
          .tree.value();

  size_t internal = good.num_nodes();
  for (size_t i = 0; i < good.num_nodes(); ++i) {
    if (good.feature[i] >= 0) {
      internal = i;
      break;
    }
  }
  ASSERT_LT(internal, good.num_nodes());

  {
    ml::FlatTreeModel broken = good;
    // Self-referential child: traversal would spin forever.
    broken.left[internal] = static_cast<int32_t>(internal);
    EXPECT_FALSE(FlatPredictor::Create(std::move(broken)).ok());
  }
  {
    ml::FlatTreeModel broken = good;
    broken.feature.pop_back();  // Array lengths disagree.
    EXPECT_FALSE(FlatPredictor::Create(std::move(broken)).ok());
  }
  {
    ml::FlatTreeModel broken = good;
    broken.tree_offsets.back() += 1;  // Offsets past the arrays.
    EXPECT_FALSE(FlatPredictor::Create(std::move(broken)).ok());
  }
  {
    ml::FlatTreeModel broken = good;
    broken.split_bin[internal] = 255;  // Past the last bin boundary.
    EXPECT_FALSE(FlatPredictor::Create(std::move(broken)).ok());
  }
}

}  // namespace
}  // namespace eafe::serve
