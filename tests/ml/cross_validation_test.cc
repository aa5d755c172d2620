#include "ml/cross_validation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "ml/feature_binner.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/linear.h"
#include "ml/random_forest.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeWide;

ModelFactory RfFactory(data::TaskType task) {
  return [task] {
    RandomForest::Options options;
    options.task = task;
    options.num_trees = 8;
    options.max_depth = 6;
    return std::make_unique<RandomForest>(options);
  };
}

TEST(CrossValidationTest, HighScoreOnEasyClassification) {
  const data::Dataset dataset = MakeSeparable(300, 1);
  const double score =
      CrossValidateScore(RfFactory(dataset.task), dataset).ValueOrDie();
  EXPECT_GT(score, 0.85);
  EXPECT_LE(score, 1.0);
}

TEST(CrossValidationTest, RegressionScore) {
  const data::Dataset dataset = MakeSmoothRegression(300, 2);
  const double score =
      CrossValidateScore(RfFactory(dataset.task), dataset).ValueOrDie();
  EXPECT_GT(score, 0.5);
}

TEST(CrossValidationTest, PerFoldScoresMatchMean) {
  const data::Dataset dataset = MakeSeparable(200, 3);
  CvOptions options;
  options.folds = 4;
  const auto scores =
      CrossValidateScores(RfFactory(dataset.task), dataset, options)
          .ValueOrDie();
  ASSERT_EQ(scores.size(), 4u);
  double mean = 0.0;
  for (double s : scores) mean += s;
  mean /= 4.0;
  const double score =
      CrossValidateScore(RfFactory(dataset.task), dataset, options)
          .ValueOrDie();
  EXPECT_NEAR(score, mean, 1e-12);
}

TEST(CrossValidationTest, DeterministicGivenSeed) {
  const data::Dataset dataset = MakeSeparable(150, 4);
  CvOptions options;
  options.seed = 9;
  const double a =
      CrossValidateScore(RfFactory(dataset.task), dataset, options)
          .ValueOrDie();
  const double b =
      CrossValidateScore(RfFactory(dataset.task), dataset, options)
          .ValueOrDie();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(CrossValidationTest, ScoreChangesWithSeed) {
  const data::Dataset dataset = MakeSeparable(150, 4);
  CvOptions a_options;
  a_options.seed = 1;
  CvOptions b_options;
  b_options.seed = 2;
  const double a =
      CrossValidateScore(RfFactory(dataset.task), dataset, a_options)
          .ValueOrDie();
  const double b =
      CrossValidateScore(RfFactory(dataset.task), dataset, b_options)
          .ValueOrDie();
  // Different folds virtually always give (slightly) different scores.
  EXPECT_NE(a, b);
}

TEST(CrossValidationTest, StratifiedFallbackForTinyClasses) {
  // One class with fewer members than folds: falls back to plain K-fold
  // rather than failing.
  data::Dataset dataset = MakeSeparable(60, 5);
  for (size_t i = 0; i < dataset.labels.size(); ++i) {
    dataset.labels[i] = i < 58 ? 0.0 : 1.0;
  }
  CvOptions options;
  options.folds = 5;
  const auto score =
      CrossValidateScore(RfFactory(dataset.task), dataset, options);
  EXPECT_TRUE(score.ok()) << score.status().ToString();
}

TEST(CrossValidationTest, RejectsBadInputs) {
  const data::Dataset dataset = MakeSeparable(50, 6);
  CvOptions options;
  options.folds = 1;
  EXPECT_FALSE(
      CrossValidateScore(RfFactory(dataset.task), dataset, options).ok());
  EXPECT_FALSE(CrossValidateScore([]() -> std::unique_ptr<Model> {
                 return nullptr;
               },
                                  dataset)
                   .ok());
}

/// `dataset` with one more column ("cand", a noisy function of column
/// 0) appended last — the shape of a search's frame plus a candidate.
data::Dataset WithCandidate(data::Dataset dataset, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> candidate = dataset.features.column(0).values();
  for (double& v : candidate) v = v * v + rng.Normal(0.0, 0.1);
  EXPECT_TRUE(
      dataset.features.AddColumn(data::Column("cand", std::move(candidate)))
          .ok());
  return dataset;
}

/// The table without its last column: the frame the candidate extends.
data::Dataset Frame(const data::Dataset& dataset) {
  data::Dataset frame = dataset;
  EXPECT_TRUE(
      frame.features.DropColumn(frame.features.num_columns() - 1).ok());
  return frame;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

/// Per-fold scores with frame bins must equal the scores without them bit
/// for bit, and must bin only the candidate column (no FeatureBinner::Fit).
void ExpectFrameBinsChangeNothing(const ModelFactory& factory,
                                  const data::Dataset& dataset) {
  CvOptions cv;
  cv.folds = 5;
  const std::vector<double> plain =
      CrossValidateScores(factory, dataset, cv).ValueOrDie();
  const std::unique_ptr<Model> model = factory();
  const auto* shared = dynamic_cast<const SharedBinnerModel*>(model.get());
  ASSERT_NE(shared, nullptr);
  const auto frame_bins =
      shared->BinFrame(Frame(dataset).features).ValueOrDie();
  ASSERT_NE(frame_bins, nullptr);
  FeatureBinner::ResetTotalFits();
  const std::vector<double> extended =
      CrossValidateScores(factory, dataset, cv, frame_bins.get())
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 0u);
  EXPECT_EQ(Bits(extended), Bits(plain));
}

TEST(CrossValidationFrameBinsTest, ForestClassificationIsBitIdentical) {
  const data::Dataset dataset = WithCandidate(MakeWide(1500, 8, 11), 12);
  ExpectFrameBinsChangeNothing(RfFactory(dataset.task), dataset);
}

// 5000 rows take the strided-sample (quantile) cut path.
TEST(CrossValidationFrameBinsTest, ForestRegressionIsBitIdentical) {
  const data::Dataset dataset =
      WithCandidate(MakeSmoothRegression(5000, 13), 14);
  ExpectFrameBinsChangeNothing(RfFactory(dataset.task), dataset);
}

TEST(CrossValidationFrameBinsTest, BoosterIsBitIdentical) {
  const data::Dataset dataset = WithCandidate(MakeWide(1500, 8, 15), 16);
  ExpectFrameBinsChangeNothing(
      [] {
        GradientBoostedTrees::Options options;
        options.rounds = 10;
        return std::make_unique<GradientBoostedTrees>(options);
      },
      dataset);
}

// A model that is no tree learner does not share bins: CV ignores the
// frame bins it is handed and takes the materialized path, fold
// sub-frames included.
TEST(CrossValidationFrameBinsTest, NonTreeModelIgnoresFrameBins) {
  const data::Dataset dataset = WithCandidate(MakeSeparable(300, 17), 18);
  const auto frame_bins =
      SharedBinnerModel::BinFrame(Frame(dataset).features).ValueOrDie();
  ASSERT_NE(frame_bins, nullptr);
  const ModelFactory logistic = [] {
    LogisticRegression::Options options;
    options.epochs = 10;
    return std::make_unique<LogisticRegression>(options);
  };
  CvOptions cv;
  cv.folds = 3;
  const std::vector<double> plain =
      CrossValidateScores(logistic, dataset, cv).ValueOrDie();
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  const std::vector<double> with_bins =
      CrossValidateScores(logistic, dataset, cv, frame_bins.get())
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 0u);
  EXPECT_GT(data::DataFrame::TotalSelectRows(), 0u);
  EXPECT_EQ(Bits(with_bins), Bits(plain));
}

}  // namespace
}  // namespace eafe::ml
