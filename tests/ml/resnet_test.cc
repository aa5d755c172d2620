#include "ml/resnet.h"

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::ExpectClassIdRejected;
using testing::LabelAccuracy;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeXor;
using testing::OutOfRangeClassLabels;

TEST(TabularResNetTest, LearnsSeparable) {
  const data::Dataset dataset = MakeSeparable(300, 1);
  TabularResNet model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

TEST(TabularResNetTest, LearnsXor) {
  const data::Dataset dataset = MakeXor(400, 2);
  TabularResNet::Options options;
  options.epochs = 150;
  TabularResNet model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.85);
}

TEST(TabularResNetTest, Regression) {
  const data::Dataset dataset = MakeSmoothRegression(300, 3);
  TabularResNet::Options options;
  options.task = data::TaskType::kRegression;
  options.epochs = 120;
  TabularResNet model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(OneMinusRae(dataset.labels, pred), 0.7);
}

TEST(TabularResNetTest, RepresentationShapeAndUsefulness) {
  // The RTDL_N construction: ResNet representation feeding an RF head.
  const data::Dataset dataset = MakeXor(300, 4);
  TabularResNet::Options options;
  options.width = 16;
  options.epochs = 100;
  TabularResNet model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const data::DataFrame repr =
      model.ExtractRepresentation(dataset.features).ValueOrDie();
  EXPECT_EQ(repr.num_rows(), dataset.num_rows());
  EXPECT_EQ(repr.num_columns(), 16u);

  RandomForest rf;
  ASSERT_TRUE(rf.Fit(repr, dataset.labels).ok());
  const auto pred = rf.Predict(repr).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

TEST(TabularResNetTest, DeterministicGivenSeed) {
  const data::Dataset dataset = MakeSeparable(100, 5);
  TabularResNet a, b;
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(a.Predict(dataset.features).ValueOrDie(),
            b.Predict(dataset.features).ValueOrDie());
}

TEST(TabularResNetTest, ErrorsOnBadInput) {
  TabularResNet model;
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2})).ok());
  EXPECT_FALSE(model.Predict(x).ok());
  EXPECT_FALSE(model.ExtractRepresentation(x).ok());
  EXPECT_FALSE(model.Fit(x, {1.0}).ok());
}

TEST(TabularResNetTest, RejectsClassIdsPastTheBound) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3})).ok());
  for (const std::vector<double>& labels : OutOfRangeClassLabels()) {
    ExpectClassIdRejected(TabularResNet().Fit(x, labels));
  }
}

TEST(TabularResNetTest, ZeroBlocksIsLinearStemPlusHead) {
  const data::Dataset dataset = MakeSeparable(200, 6);
  TabularResNet::Options options;
  options.num_blocks = 0;
  TabularResNet model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

}  // namespace
}  // namespace eafe::ml
