#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "data/dataframe.h"
#include "fpe/fpe_model.h"
#include "ml/decision_tree.h"
#include "ml/flat_model.h"
#include "ml/gaussian_process.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/resnet.h"
#include "serve/model_store.h"

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
/// trees grow to their depth cap rather than stopping at pure nodes. A
/// classification label is the number of `cuts` the signal exceeds: one
/// cut at 0 makes it binary, two make three classes.
data::Dataset MakeFrame(data::TaskType task, size_t rows, size_t columns,
                        uint64_t seed,
                        const std::vector<double>& cuts = {0.0}) {
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
    dataset.labels[i] = signal;
    if (task == data::TaskType::kClassification) {
      dataset.labels[i] = static_cast<double>(std::count_if(
          cuts.begin(), cuts.end(), [signal](double cut) {
            return signal > cut;
          }));
    }
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

uint64_t ForestDigest(data::TaskType task, size_t rows, size_t columns,
                      const std::vector<double>& cuts = {0.0}) {
  const data::Dataset dataset = MakeFrame(task, rows, columns, 2024, cuts);
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

// Three classes take the class split scan's runtime-width path and the
// three-way majority leaf; no other digest reaches either. Pinned before
// the class scan left FindBestSplit's inline loop and tree nodes began
// reading their leaves from partition totals; both kept it.
TEST(GoldenDigestTest, MultiClassForest) {
  EXPECT_EQ(ForestDigest(data::TaskType::kClassification, 2000, 10,
                         {-0.5, 0.5}),
            0xe75222f32acea3ddULL);
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

// The tree paths no forest digest reaches: the standalone histogram tree
// (the evaluator's `tree`), the exact oracle, a regression booster, and
// each learner's FitBinned / PredictBinnedRows over one fold's rows of a
// shared binner. Pinned before the forest, the booster and the tree
// shared one fit preamble, binned-view check and predict surface.

DecisionTree::Options TreeOptions(data::TaskType task) {
  DecisionTree::Options options;
  options.task = task;
  options.max_depth = 8;
  options.seed = 15;
  return options;
}

/// Folds a fitted tree's predictions and probabilities on `x` and its
/// importances.
uint64_t TreePredictDigest(const DecisionTree& tree,
                           const data::DataFrame& x) {
  uint64_t digest = FoldValues(kDigestSeed, tree.Predict(x).ValueOrDie());
  digest = FoldValues(digest, tree.PredictProba(x).ValueOrDie());
  return FoldValues(digest, tree.feature_importances());
}

uint64_t HistogramTreeDigest(data::TaskType task) {
  const data::Dataset dataset = MakeFrame(task, 1500, 32, 2026);
  DecisionTree tree(TreeOptions(task));
  EXPECT_TRUE(tree.Fit(dataset.features, dataset.labels).ok());
  return FoldTrees(TreePredictDigest(tree, dataset.features), tree.image());
}

TEST(GoldenDigestTest, HistogramTreeClassification) {
  EXPECT_EQ(HistogramTreeDigest(data::TaskType::kClassification),
            0xe8b7df0f121fbb09ULL);
}

TEST(GoldenDigestTest, HistogramTreeRegression) {
  EXPECT_EQ(HistogramTreeDigest(data::TaskType::kRegression),
            0x54b06595627beddcULL);
}

/// The exact oracle predicts a frame it did not train on, so its raw
/// thresholds are pinned along with its node count.
uint64_t ExactTreeDigest(data::TaskType task) {
  const data::Dataset train = MakeFrame(task, 600, 8, 2027);
  const data::Dataset query = MakeFrame(task, 300, 8, 2028);
  DecisionTree tree(TreeOptions(task));
  EXPECT_TRUE(tree.FitExact(train.features, train.labels).ok());
  return Fold(TreePredictDigest(tree, query.features), tree.node_count());
}

TEST(GoldenDigestTest, ExactTreeClassification) {
  EXPECT_EQ(ExactTreeDigest(data::TaskType::kClassification),
            0xfee23ba8c39d1240ULL);
}

TEST(GoldenDigestTest, ExactTreeRegression) {
  EXPECT_EQ(ExactTreeDigest(data::TaskType::kRegression),
            0xeb6c488244c3f666ULL);
}

GradientBoostedTrees::Options BoosterOptions(data::TaskType task) {
  GradientBoostedTrees::Options options;
  options.task = task;
  options.rounds = 20;
  options.max_depth = 4;
  options.subsample = 0.8;
  options.seed = 13;
  return options;
}

// 4000 rows over 8 columns let the larger child of a split take the
// parent-minus-sibling path, which needs about 2 x 255 x 3 = 1530 rows.
TEST(GoldenDigestTest, RegressionBooster) {
  const data::Dataset dataset =
      MakeFrame(data::TaskType::kRegression, 4000, 8, 2029);
  GradientBoostedTrees booster(BoosterOptions(data::TaskType::kRegression));
  ASSERT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
  uint64_t digest =
      Fold(kDigestSeed, std::bit_cast<uint64_t>(booster.base_score()));
  digest = FoldValues(digest, booster.Predict(dataset.features).ValueOrDie());
  digest =
      FoldValues(digest, booster.PredictProba(dataset.features).ValueOrDie());
  digest = FoldTrees(digest, booster.image());
  EXPECT_EQ(digest, 0x4e4846984a50f331ULL);
}

/// One cross-validation fold over a shared binner: `model` bins the
/// frame, trains by FitBinned on the rows outside every fifth row, and
/// predicts those held-out rows by id. Class ids differ only in their
/// high bits, so the fitted image is folded too.
template <typename Learner>
uint64_t FoldDigest(Learner* model) {
  const data::Dataset dataset =
      MakeFrame(data::TaskType::kClassification, 1200, 10, 2030);
  std::vector<size_t> train;
  std::vector<size_t> test;
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    (row % 5 == 2 ? test : train).push_back(row);
  }
  const auto binner = model->BinFrame(dataset.features).ValueOrDie();
  EXPECT_TRUE(model->FitBinned(binner, dataset.labels, train).ok());
  const uint64_t digest =
      FoldValues(kDigestSeed, model->PredictBinnedRows(test).ValueOrDie());
  return FoldTrees(digest, model->image());
}

TEST(GoldenDigestTest, FoldForestBinnedRows) {
  RandomForest::Options options;
  options.num_trees = 8;
  options.seed = 11;
  RandomForest forest(options);
  EXPECT_EQ(FoldDigest(&forest), 0x258dcb24f6458c95ULL);
}

TEST(GoldenDigestTest, FoldTreeBinnedRows) {
  DecisionTree tree(TreeOptions(data::TaskType::kClassification));
  EXPECT_EQ(FoldDigest(&tree), 0x3d82c3c9d7562bdeULL);
}

TEST(GoldenDigestTest, FoldBoosterBinnedRows) {
  GradientBoostedTrees booster(
      BoosterOptions(data::TaskType::kClassification));
  EXPECT_EQ(FoldDigest(&booster), 0x2ff6d5ae612d2140ULL);
}

// The non-tree learners. Each digest folds the fitted state a learner
// exposes and its predictions on a frame it did not train on, so a change
// to the order of any training or predict arithmetic, or to the draws its
// Rng makes, moves the pinned value. Pinned before the learners' SGD head
// loop, network skeleton, softmax and sigmoid were shared.

uint64_t FoldMatrix(uint64_t digest, const Matrix& m) {
  digest = Fold(digest, m.rows());
  digest = Fold(digest, m.cols());
  return FoldValues(digest, m.data());
}

uint64_t FoldScaler(uint64_t digest, const data::StandardScaler& scaler) {
  digest = FoldValues(digest, scaler.means());
  return FoldValues(digest, scaler.scales());
}

/// Fit/query pair of one learner digest: 400 rows to train on and 200
/// fresh rows to predict, both over six columns.
struct LearnerFrames {
  data::Dataset train;
  data::Dataset query;
};

LearnerFrames MakeLearnerFrames(data::TaskType task,
                                const std::vector<double>& cuts = {0.0}) {
  return {MakeFrame(task, 400, 6, 3031, cuts),
          MakeFrame(task, 200, 6, 3032, cuts)};
}

const std::vector<double> kThreeClassCuts = {-0.5, 0.5};

uint64_t LogisticDigest(const std::vector<double>& cuts) {
  const LearnerFrames frames =
      MakeLearnerFrames(data::TaskType::kClassification, cuts);
  LogisticRegression::Options options;
  options.epochs = 30;
  options.seed = 5;
  LogisticRegression model(options);
  EXPECT_TRUE(model.Fit(frames.train.features, frames.train.labels).ok());
  uint64_t digest = FoldScaler(kDigestSeed, model.scaler());
  for (const std::vector<double>& w : model.all_weights()) {
    digest = FoldValues(digest, w);
  }
  digest =
      FoldValues(digest, model.Predict(frames.query.features).ValueOrDie());
  return FoldValues(digest,
                    model.PredictProba(frames.query.features).ValueOrDie());
}

TEST(GoldenDigestTest, LogisticBinary) {
  EXPECT_EQ(LogisticDigest({0.0}), 0x04b7241735295608ULL);
}

TEST(GoldenDigestTest, LogisticMultiClass) {
  EXPECT_EQ(LogisticDigest(kThreeClassCuts), 0x5ca6d6be0b0efaa9ULL);
}

uint64_t SvmDigest(data::TaskType task, const std::vector<double>& cuts) {
  const LearnerFrames frames = MakeLearnerFrames(task, cuts);
  LinearSvm::Options options;
  options.task = task;
  options.epochs = 30;
  options.seed = 6;
  LinearSvm model(options);
  EXPECT_TRUE(model.Fit(frames.train.features, frames.train.labels).ok());
  uint64_t digest = kDigestSeed;
  for (const std::vector<double>& w : model.all_weights()) {
    digest = FoldValues(digest, w);
  }
  return FoldValues(digest,
                    model.Predict(frames.query.features).ValueOrDie());
}

TEST(GoldenDigestTest, SvmBinary) {
  EXPECT_EQ(SvmDigest(data::TaskType::kClassification, {0.0}),
            0x3a81b8e4f128b6c3ULL);
}

TEST(GoldenDigestTest, SvmMultiClass) {
  EXPECT_EQ(SvmDigest(data::TaskType::kClassification, kThreeClassCuts),
            0xc37d762616ca5ed2ULL);
}

TEST(GoldenDigestTest, SvmRegression) {
  EXPECT_EQ(SvmDigest(data::TaskType::kRegression, {0.0}),
            0x4eb2f21971c4ca08ULL);
}

uint64_t MlpDigest(data::TaskType task) {
  const LearnerFrames frames = MakeLearnerFrames(task, kThreeClassCuts);
  Mlp::Options options;
  options.task = task;
  options.hidden_sizes = {12, 8};
  options.epochs = 15;
  options.seed = 7;
  Mlp model(options);
  EXPECT_TRUE(model.Fit(frames.train.features, frames.train.labels).ok());
  uint64_t digest = FoldScaler(kDigestSeed, model.scaler());
  for (size_t layer = 0; layer < model.layer_weights().size(); ++layer) {
    digest = FoldMatrix(digest, model.layer_weights()[layer]);
    digest = FoldValues(digest, model.layer_biases()[layer]);
  }
  digest = Fold(digest, std::bit_cast<uint64_t>(model.label_mean()));
  digest = Fold(digest, std::bit_cast<uint64_t>(model.label_scale()));
  digest =
      FoldValues(digest, model.Predict(frames.query.features).ValueOrDie());
  if (task == data::TaskType::kClassification) {
    digest = FoldValues(
        digest, model.PredictProba(frames.query.features).ValueOrDie());
  }
  return digest;
}

TEST(GoldenDigestTest, MlpClassification) {
  EXPECT_EQ(MlpDigest(data::TaskType::kClassification), 0x7394806cb9c96ef1ULL);
}

TEST(GoldenDigestTest, MlpRegression) {
  EXPECT_EQ(MlpDigest(data::TaskType::kRegression), 0x808b47b12656112cULL);
}

/// The representation depends on every stem and block weight, so it
/// stands in for the fitted state the ResNet does not expose.
uint64_t ResNetDigest(data::TaskType task) {
  const LearnerFrames frames = MakeLearnerFrames(task, kThreeClassCuts);
  TabularResNet::Options options;
  options.task = task;
  options.width = 8;
  options.hidden = 12;
  options.epochs = 15;
  options.seed = 8;
  TabularResNet model(options);
  EXPECT_TRUE(model.Fit(frames.train.features, frames.train.labels).ok());
  uint64_t digest = FoldValues(
      kDigestSeed, model.Predict(frames.query.features).ValueOrDie());
  const data::DataFrame representation =
      model.ExtractRepresentation(frames.query.features).ValueOrDie();
  for (const data::Column& column : representation.columns()) {
    digest = FoldValues(digest, column.values());
  }
  return digest;
}

TEST(GoldenDigestTest, ResNetClassification) {
  EXPECT_EQ(ResNetDigest(data::TaskType::kClassification),
            0x34a206d8243898e0ULL);
}

TEST(GoldenDigestTest, ResNetRegression) {
  EXPECT_EQ(ResNetDigest(data::TaskType::kRegression), 0xe444b7697c333e34ULL);
}

TEST(GoldenDigestTest, NaiveBayes) {
  const LearnerFrames frames =
      MakeLearnerFrames(data::TaskType::kClassification, kThreeClassCuts);
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(frames.train.features, frames.train.labels).ok());
  uint64_t digest = FoldValues(
      kDigestSeed, model.Predict(frames.query.features).ValueOrDie());
  digest = FoldValues(digest,
                      model.PredictProba(frames.query.features).ValueOrDie());
  EXPECT_EQ(digest, 0xe2bd55a95e9c41fbULL);
}

// 400 training rows against a 250-row cap also pins the subsample draw.
TEST(GoldenDigestTest, GaussianProcess) {
  const LearnerFrames frames = MakeLearnerFrames(data::TaskType::kRegression);
  GaussianProcessRegressor::Options options;
  options.max_training_rows = 250;
  GaussianProcessRegressor model(options);
  ASSERT_TRUE(model.Fit(frames.train.features, frames.train.labels).ok());
  EXPECT_EQ(FoldValues(kDigestSeed,
                       model.Predict(frames.query.features).ValueOrDie()),
            0x58dd832faf3a8a6cULL);
}

/// Labeled FPE training columns: positives draw log-normal values,
/// negatives uniform ones, 80 to 159 values a column.
std::vector<fpe::LabeledFeature> MakeLabeledFeatures(size_t count,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<fpe::LabeledFeature> features(count);
  for (size_t i = 0; i < count; ++i) {
    fpe::LabeledFeature& f = features[i];
    f.label = i % 3 == 0 ? 1 : 0;
    f.values.resize(80 + rng.UniformInt(uint64_t{80}));
    for (double& v : f.values) {
      v = f.label == 1 ? std::exp(rng.Normal(0.0, 1.2))
                       : rng.Uniform(0.0, 1.0);
    }
  }
  return features;
}

/// FNV-1a over a model container's bytes.
uint64_t BytesDigest(const std::string& bytes) {
  uint64_t digest = kDigestSeed;
  for (char byte : bytes) {
    digest = Fold(digest, static_cast<uint8_t>(byte));
  }
  return digest;
}

/// The FPE container holds the compressor options and every fitted
/// classifier parameter.
uint64_t FpeDigest() {
  fpe::FpeModel::Options options;
  options.compressor.dimension = 16;
  options.seed = 31;
  fpe::FpeModel model(options);
  EXPECT_TRUE(model.Train(MakeLabeledFeatures(60, 31)).ok());
  return BytesDigest(serve::SerializeFpe(model).ValueOrDie());
}

// A tree container holds the flat image and the binner's cuts.
TEST(GoldenDigestTest, ForestContainer) {
  const data::Dataset dataset =
      MakeFrame(data::TaskType::kClassification, 1500, 32, 2024);
  RandomForest::Options options;
  options.num_trees = 8;
  options.seed = 11;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(BytesDigest(serve::SerializeForest(forest).ValueOrDie()),
            0xe5a7f22bdaaf65faULL);
}

TEST(GoldenDigestTest, BoosterContainer) {
  const data::Dataset dataset =
      MakeFrame(data::TaskType::kRegression, 4000, 8, 2029);
  GradientBoostedTrees booster(BoosterOptions(data::TaskType::kRegression));
  ASSERT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(BytesDigest(serve::SerializeGbdt(booster).ValueOrDie()),
            0xf372e4d5d83dc583ULL);
}

TEST(GoldenDigestTest, FpeLogisticContainer) {
  EXPECT_EQ(FpeDigest(), 0xab2a5e1957e84ab4ULL);
}

}  // namespace
}  // namespace eafe::ml
