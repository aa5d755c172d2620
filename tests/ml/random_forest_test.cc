#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "runtime/thread_pool.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::ExpectClassIdRejected;
using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeXor;

TEST(RandomForestTest, LearnsXor) {
  const data::Dataset dataset = MakeXor(400, 1);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(forest.num_trees(), 10u);
  const auto pred = forest.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

TEST(RandomForestTest, MultiClassBlobs) {
  const data::Dataset dataset = MakeBlobs(300, 2);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  const auto pred = forest.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.95);
}

TEST(RandomForestTest, RegressionBeatsMeanBaseline) {
  const data::Dataset dataset = MakeSmoothRegression(500, 3);
  RandomForest::Options options;
  options.task = data::TaskType::kRegression;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  const auto pred = forest.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(OneMinusRae(dataset.labels, pred), 0.7);
}

TEST(RandomForestTest, PredictProbaBetweenZeroAndOne) {
  const data::Dataset dataset = MakeSeparable(200, 4);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  const auto proba = forest.PredictProba(dataset.features).ValueOrDie();
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Probabilities track labels on easy data.
  double pos_mean = 0.0, neg_mean = 0.0;
  size_t pos = 0, neg = 0;
  for (size_t i = 0; i < proba.size(); ++i) {
    if (dataset.labels[i] == 1.0) {
      pos_mean += proba[i];
      ++pos;
    } else {
      neg_mean += proba[i];
      ++neg;
    }
  }
  EXPECT_GT(pos_mean / static_cast<double>(pos),
            neg_mean / static_cast<double>(neg));
}

TEST(RandomForestTest, FeatureImportancesNormalized) {
  const data::Dataset dataset = MakeSeparable(300, 5);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  const auto imp = forest.FeatureImportances();
  ASSERT_EQ(imp.size(), 3u);
  double sum = 0.0;
  for (double v : imp) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Noise column should be least important.
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[2]);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const data::Dataset dataset = MakeXor(150, 6);
  RandomForest a, b;
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(a.Predict(dataset.features).ValueOrDie(),
            b.Predict(dataset.features).ValueOrDie());
}

TEST(RandomForestTest, SeedChangesModel) {
  const data::Dataset dataset = MakeXor(150, 6);
  RandomForest::Options options;
  options.seed = 1;
  RandomForest a(options);
  options.seed = 2;
  RandomForest b(options);
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_NE(a.PredictProba(dataset.features).ValueOrDie(),
            b.PredictProba(dataset.features).ValueOrDie());
}

TEST(RandomForestTest, SubsampleOption) {
  const data::Dataset dataset = MakeXor(200, 7);
  RandomForest::Options options;
  options.subsample = 0.5;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  const auto pred = forest.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.8);
}

TEST(RandomForestTest, RejectsBadOptions) {
  const data::Dataset dataset = MakeXor(50, 8);
  RandomForest::Options options;
  options.num_trees = 0;
  EXPECT_FALSE(
      RandomForest(options).Fit(dataset.features, dataset.labels).ok());
  options = RandomForest::Options();
  options.subsample = 0.0;
  EXPECT_FALSE(
      RandomForest(options).Fit(dataset.features, dataset.labels).ok());
}

TEST(RandomForestTest, FitIsIdenticalAcrossThreadCounts) {
  // Bootstrap samples and tree seeds are pre-drawn serially, so parallel
  // tree training must be bit-identical to the serial path.
  const data::Dataset dataset = MakeXor(200, 11);
  runtime::SetGlobalThreads(1);
  RandomForest serial;
  ASSERT_TRUE(serial.Fit(dataset.features, dataset.labels).ok());
  runtime::SetGlobalThreads(4);
  RandomForest parallel;
  ASSERT_TRUE(parallel.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(serial.Predict(dataset.features).ValueOrDie(),
            parallel.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(serial.PredictProba(dataset.features).ValueOrDie(),
            parallel.PredictProba(dataset.features).ValueOrDie());
  EXPECT_EQ(serial.FeatureImportances(), parallel.FeatureImportances());
  runtime::SetGlobalThreads(1);
}

TEST(RandomForestTest, ErrorsBeforeFitAndOnMismatch) {
  RandomForest forest;
  const data::Dataset dataset = MakeXor(50, 9);
  EXPECT_FALSE(forest.Predict(dataset.features).ok());
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  data::DataFrame narrow;
  ASSERT_TRUE(narrow.AddColumn(data::Column("x0", {0.0})).ok());
  EXPECT_FALSE(forest.Predict(narrow).ok());
}

// A class id past data::kMaxClasses (or one an int cannot hold) fails the
// fit instead of sizing the per-class counts by it.
TEST(RandomForestTest, RejectsClassIdsPastTheBound) {
  data::Dataset dataset = MakeXor(50, 10);
  dataset.labels[7] = 3e9;
  RandomForest forest;
  EXPECT_EQ(forest.Fit(dataset.features, dataset.labels).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(forest.fitted());
  dataset.labels[7] = static_cast<double>(data::kMaxClasses);
  EXPECT_EQ(forest.Fit(dataset.features, dataset.labels).code(),
            StatusCode::kInvalidArgument);
}

// A fractional label is no class id: the fit rejects it, as
// Dataset::Validate does, instead of training it as class 0.
TEST(RandomForestTest, RejectsNonIntegralClassIds) {
  data::Dataset dataset = MakeXor(50, 10);
  dataset.labels[7] = 0.5;
  RandomForest forest;
  ExpectClassIdRejected(forest.Fit(dataset.features, dataset.labels));
  EXPECT_FALSE(forest.fitted());
}

}  // namespace
}  // namespace eafe::ml
