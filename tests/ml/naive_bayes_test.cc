#include "ml/naive_bayes.h"

#include <gtest/gtest.h>

#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::ExpectClassIdRejected;
using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeSeparable;
using testing::OutOfRangeClassLabels;

TEST(GaussianNaiveBayesTest, LearnsBlobs) {
  const data::Dataset dataset = MakeBlobs(300, 1);
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(model.num_classes(), 3u);
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.95);
}

TEST(GaussianNaiveBayesTest, BinaryProbabilities) {
  const data::Dataset dataset = MakeSeparable(300, 2);
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto proba = model.PredictProba(dataset.features).ValueOrDie();
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  for (size_t i = 0; i < proba.size(); ++i) {
    EXPECT_GE(proba[i], 0.0);
    EXPECT_LE(proba[i], 1.0);
    // Argmax consistency for binary problems.
    EXPECT_EQ(pred[i] == 1.0, proba[i] >= 0.5) << i;
  }
}

TEST(GaussianNaiveBayesTest, PriorsInfluencePrediction) {
  // Heavily imbalanced overlapping data: prior should pull predictions.
  Rng rng(3);
  std::vector<double> x, labels;
  for (int i = 0; i < 180; ++i) {
    x.push_back(rng.Normal(0.0, 1.0));
    labels.push_back(0.0);
  }
  for (int i = 0; i < 20; ++i) {
    x.push_back(rng.Normal(0.5, 1.0));
    labels.push_back(1.0);
  }
  data::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(data::Column("x", x)).ok());
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(frame, labels).ok());
  const auto pred = model.Predict(frame).ValueOrDie();
  size_t predicted_majority = 0;
  for (double p : pred) predicted_majority += p == 0.0;
  EXPECT_GT(predicted_majority, 150u);
}

TEST(GaussianNaiveBayesTest, VarianceFloorHandlesConstantFeature) {
  data::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(data::Column("c", {1, 1, 1, 1})).ok());
  ASSERT_TRUE(frame.AddColumn(data::Column("x", {0, 0, 5, 5})).ok());
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(frame, {0, 0, 1, 1}).ok());
  const auto pred = model.Predict(frame).ValueOrDie();
  EXPECT_EQ(pred, (std::vector<double>{0, 0, 1, 1}));
}

TEST(GaussianNaiveBayesTest, RejectsEmptyClass) {
  data::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(data::Column("x", {1, 2, 3})).ok());
  // Labels 0 and 2 present, class 1 missing.
  EXPECT_FALSE(GaussianNaiveBayes().Fit(frame, {0, 2, 0}).ok());
}

TEST(GaussianNaiveBayesTest, RejectsClassIdsPastTheBound) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3})).ok());
  for (const std::vector<double>& labels : OutOfRangeClassLabels()) {
    ExpectClassIdRejected(GaussianNaiveBayes().Fit(x, labels));
  }
}

TEST(GaussianNaiveBayesTest, ErrorsOnBadInput) {
  GaussianNaiveBayes model;
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2})).ok());
  EXPECT_FALSE(model.Fit(x, {1.0}).ok());
  EXPECT_FALSE(model.Predict(x).ok());
  ASSERT_TRUE(model.Fit(x, {0.0, 1.0}).ok());
  data::DataFrame wide;
  ASSERT_TRUE(wide.AddColumn(data::Column("a", {1.0})).ok());
  ASSERT_TRUE(wide.AddColumn(data::Column("b", {2.0})).ok());
  EXPECT_FALSE(model.Predict(wide).ok());
}

}  // namespace
}  // namespace eafe::ml
