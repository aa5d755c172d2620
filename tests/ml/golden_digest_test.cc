#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "data/dataframe.h"
#include "ml/flat_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

// Golden digests of fixed-seed model fits. Each digest folds the bit
// pattern of every prediction, importance and flattened node of one fit,
// so any change to what a fit learns or predicts, down to the last bit of
// one double, changes the pinned value. A refactor of the training or
// prediction code that claims to keep results must leave these unchanged;
// a change that moves one on purpose re-pins it and says why next to it.

namespace eafe::ml {
namespace {

/// rows x columns (columns >= 5) frame of standard-normal columns, with
/// column 4 rounded to a few distinct values so binning sees ties. The
/// target mixes a few columns through an interaction and label noise, so
/// trees grow to their depth cap rather than stopping at pure nodes.
data::Dataset MakeFrame(data::TaskType task, size_t rows, size_t columns,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> values(columns,
                                          std::vector<double>(rows));
  data::Dataset dataset;
  dataset.name = "golden";
  dataset.task = task;
  dataset.labels.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (std::vector<double>& column : values) column[i] = rng.Normal();
    values[4][i] = std::round(2.0 * values[4][i]);
    const double signal = values[0][i] + 0.5 * values[1][i] * values[2][i] -
                          values[3][i] + 0.3 * values[4][i] +
                          rng.Normal(0.0, 0.5);
    dataset.labels[i] = task == data::TaskType::kClassification
                            ? (signal > 0.0 ? 1.0 : 0.0)
                            : signal;
  }
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("g" + std::to_string(c),
                                            std::move(values[c])))
                    .ok());
  }
  return dataset;
}

/// FNV-1a over 64-bit words: folds one word into the running digest.
uint64_t Fold(uint64_t digest, uint64_t word) {
  return (digest ^ word) * 0x100000001B3ULL;
}

uint64_t FoldValues(uint64_t digest, const std::vector<double>& values) {
  digest = Fold(digest, values.size());
  for (double v : values) digest = Fold(digest, std::bit_cast<uint64_t>(v));
  return digest;
}

/// Folds every tree of a flat image: its node count, then each node's
/// feature, split bin, children (relative to the tree's first node, -1
/// on leaves), value and proba.
uint64_t FoldTrees(uint64_t digest, const FlatTreeModel& image) {
  digest = Fold(digest, image.num_trees());
  for (size_t t = 0; t < image.num_trees(); ++t) {
    const uint32_t begin = image.tree_offsets[t];
    const uint32_t end = image.tree_offsets[t + 1];
    const auto relative = [begin](int32_t child) {
      return static_cast<uint64_t>(
          child < 0 ? child : child - static_cast<int32_t>(begin));
    };
    digest = Fold(digest, end - begin);
    for (uint32_t i = begin; i < end; ++i) {
      digest = Fold(digest, static_cast<uint64_t>(image.feature[i]));
      digest = Fold(digest, image.split_bin[i]);
      digest = Fold(digest, relative(image.left[i]));
      digest = Fold(digest, relative(image.right[i]));
      digest = Fold(digest, std::bit_cast<uint64_t>(image.value[i]));
      digest = Fold(digest, std::bit_cast<uint64_t>(image.proba[i]));
    }
  }
  return digest;
}

constexpr uint64_t kDigestSeed = 0xCBF29CE484222325ULL;

uint64_t ForestDigest(data::TaskType task, size_t rows, size_t columns) {
  const data::Dataset dataset = MakeFrame(task, rows, columns, 2024);
  RandomForest::Options options;
  options.task = task;
  options.num_trees = 8;
  options.max_depth = 8;
  options.seed = 11;
  RandomForest forest(options);
  EXPECT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  uint64_t digest = kDigestSeed;
  digest = FoldValues(digest, forest.Predict(dataset.features).ValueOrDie());
  digest =
      FoldValues(digest, forest.PredictProba(dataset.features).ValueOrDie());
  digest = FoldValues(digest, forest.FeatureImportances());
  return FoldTrees(digest, forest.image());
}

// Class counts are exact integers, so the forest's fit is the same at
// every SIMD tier and thread count.
TEST(GoldenDigestTest, ClassificationForest) {
  EXPECT_EQ(ForestDigest(data::TaskType::kClassification, 1500, 32),
            0x05e8e1e00a66a145ULL);
}

TEST(GoldenDigestTest, Booster) {
  const data::Dataset dataset =
      MakeFrame(data::TaskType::kClassification, 1500, 32, 2025);
  GradientBoostedTrees::Options options;
  options.rounds = 20;
  options.max_depth = 4;
  options.subsample = 0.8;
  options.seed = 13;
  GradientBoostedTrees booster(options);
  ASSERT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
  uint64_t digest = kDigestSeed;
  digest = Fold(digest, std::bit_cast<uint64_t>(booster.base_score()));
  digest = FoldValues(digest, booster.Predict(dataset.features).ValueOrDie());
  digest =
      FoldValues(digest, booster.PredictProba(dataset.features).ValueOrDie());
  digest = FoldTrees(digest, booster.image());
  EXPECT_EQ(digest, 0xe29c747b2680a6cfULL);
}

// Regression node sums {n, Σy, Σy²} accumulate from the node's own rows
// in row order. This value was re-pinned when forest nodes stopped
// deriving the larger child's histogram as parent minus sibling: derived
// sums differ from row-order sums in their last bits, which moves split
// gains and importances and can flip near-tied splits. The earlier digest
// was 0x54afc0408856218a. The frame is 4000 rows tall because the earlier
// builder subtracted only for children of at least about 2 x 255 x 3 =
// 1530 rows here, so shorter frames kept their digest. Class counts are
// exact integers, so the classification digest above did not move.
TEST(GoldenDigestTest, RegressionForest) {
  EXPECT_EQ(ForestDigest(data::TaskType::kRegression, 4000, 8),
            0xa86c63baccd3bd8aULL);
}

}  // namespace
}  // namespace eafe::ml
