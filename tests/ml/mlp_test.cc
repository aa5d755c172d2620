#include "ml/mlp.h"

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::ExpectClassIdRejected;
using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeXor;
using testing::OutOfRangeClassLabels;

TEST(MlpTest, LearnsXor) {
  const data::Dataset dataset = MakeXor(400, 1);
  Mlp::Options options;
  options.epochs = 150;
  Mlp model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

TEST(MlpTest, LearnsSeparable) {
  const data::Dataset dataset = MakeSeparable(300, 2);
  Mlp model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.93);
}

TEST(MlpTest, MultiClass) {
  const data::Dataset dataset = MakeBlobs(300, 3);
  Mlp model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.95);
}

TEST(MlpTest, RegressionFitsSmoothFunction) {
  const data::Dataset dataset = MakeSmoothRegression(400, 4);
  Mlp::Options options;
  options.task = data::TaskType::kRegression;
  options.epochs = 150;
  Mlp model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(OneMinusRae(dataset.labels, pred), 0.8);
}

TEST(MlpTest, RegressionHandlesShiftedScaledTargets) {
  data::Dataset dataset = MakeSmoothRegression(300, 5);
  for (double& y : dataset.labels) y = 1000.0 + 50.0 * y;
  Mlp::Options options;
  options.task = data::TaskType::kRegression;
  options.epochs = 150;
  Mlp model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(OneMinusRae(dataset.labels, pred), 0.7);
}

TEST(MlpTest, PredictProbaSumsToValid) {
  const data::Dataset dataset = MakeSeparable(200, 6);
  Mlp model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto proba = model.PredictProba(dataset.features).ValueOrDie();
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MlpTest, PredictProbaRequiresClassification) {
  Mlp::Options options;
  options.task = data::TaskType::kRegression;
  Mlp model(options);
  const data::Dataset dataset = MakeSmoothRegression(50, 7);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  EXPECT_FALSE(model.PredictProba(dataset.features).ok());
}

TEST(MlpTest, DeterministicGivenSeed) {
  const data::Dataset dataset = MakeSeparable(100, 8);
  Mlp a, b;
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(a.PredictProba(dataset.features).ValueOrDie(),
            b.PredictProba(dataset.features).ValueOrDie());
}

TEST(MlpTest, ErrorsOnBadInput) {
  Mlp model;
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3})).ok());
  EXPECT_FALSE(model.Fit(x, {1.0}).ok());
  EXPECT_FALSE(model.Fit(x, {1, 1, 1}).ok());  // Single class.
  EXPECT_FALSE(model.Predict(x).ok());
}

TEST(MlpTest, RejectsClassIdsPastTheBound) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3})).ok());
  for (const std::vector<double>& labels : OutOfRangeClassLabels()) {
    ExpectClassIdRejected(Mlp().Fit(x, labels));
  }
}

}  // namespace
}  // namespace eafe::ml
