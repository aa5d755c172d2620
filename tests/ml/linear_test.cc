#include "ml/linear.h"

#include <gtest/gtest.h>

#include <cstring>

#include "ml/metrics.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::ExpectClassIdRejected;
using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeLinearRegression;
using testing::MakeSeparable;
using testing::OutOfRangeClassLabels;

TEST(LogisticRegressionTest, LearnsSeparableData) {
  const data::Dataset dataset = MakeSeparable(400, 1);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.95);
}

TEST(LogisticRegressionTest, ProbabilitiesCalibratedDirectionally) {
  const data::Dataset dataset = MakeSeparable(300, 2);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto proba = model.PredictProba(dataset.features).ValueOrDie();
  for (double p : proba) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
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
  EXPECT_GT(pos_mean / static_cast<double>(pos), 0.7);
  EXPECT_LT(neg_mean / static_cast<double>(neg), 0.3);
}

TEST(LogisticRegressionTest, MultiClassOneVsRest) {
  const data::Dataset dataset = MakeBlobs(300, 3);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

// The one-row predict over a feature vector returns the bits of the frame
// path on that row, for a fitted model and a restored copy of it.
TEST(LogisticRegressionTest, RowProbaMatchesOneRowFrameBitForBit) {
  for (const data::Dataset& dataset : {MakeSeparable(120, 11),
                                       MakeBlobs(120, 12)}) {
    LogisticRegression model;
    ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
    LogisticRegression restored;
    ASSERT_TRUE(restored
                    .RestoreFitted(model.scaler(), model.all_weights(),
                                   model.num_classes())
                    .ok());
    const std::vector<double> all =
        model.PredictProba(dataset.features).ValueOrDie();
    std::vector<double> row;
    for (size_t r = 0; r < dataset.features.num_rows(); ++r) {
      dataset.features.CopyRow(r, &row);
      const double one_row =
          model.PredictProba(dataset.features.SelectRows({r}))
              .ValueOrDie()[0];
      for (const LogisticRegression* head : {&model, &restored}) {
        const double got = head->PredictRowProba(row).ValueOrDie();
        EXPECT_EQ(std::memcmp(&got, &one_row, sizeof(double)), 0)
            << "row " << r;
        EXPECT_EQ(std::memcmp(&got, &all[r], sizeof(double)), 0)
            << "row " << r;
      }
    }
    EXPECT_EQ(model.PredictRowProba(std::vector<double>(row.size() + 1))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(LogisticRegression()
                .PredictRowProba(std::vector<double>{1.0})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(LogisticRegressionTest, ErrorsOnBadInput) {
  LogisticRegression model;
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3})).ok());
  EXPECT_FALSE(model.Fit(x, {1.0, 0.0}).ok());   // Mismatch.
  EXPECT_FALSE(model.Fit(x, {0, 0, 0}).ok());    // Single class.
  EXPECT_FALSE(model.Predict(x).ok());           // Not fitted.
}

// Both linear classifiers take their class count from BinnedLabels, so a
// class id no int holds fails the fit instead of sizing one head per id.
TEST(LinearClassifiersTest, RejectClassIdsPastTheBound) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3})).ok());
  for (const std::vector<double>& labels : OutOfRangeClassLabels()) {
    ExpectClassIdRejected(LogisticRegression().Fit(x, labels));
    ExpectClassIdRejected(LinearSvm().Fit(x, labels));
  }
}

TEST(LogisticRegressionTest, DeterministicGivenSeed) {
  const data::Dataset dataset = MakeSeparable(150, 4);
  LogisticRegression a, b;
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(a.PredictProba(dataset.features).ValueOrDie(),
            b.PredictProba(dataset.features).ValueOrDie());
}

TEST(LinearSvmTest, LearnsSeparableData) {
  const data::Dataset dataset = MakeSeparable(400, 5);
  LinearSvm model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.95);
}

TEST(LinearSvmTest, MultiClassOneVsRest) {
  const data::Dataset dataset = MakeBlobs(300, 6);
  LinearSvm model;
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

TEST(LinearSvmTest, RegressionRecoversLinearTarget) {
  const data::Dataset dataset = MakeLinearRegression(400, 7);
  LinearSvm::Options options;
  options.task = data::TaskType::kRegression;
  options.epochs = 200;
  LinearSvm model(options);
  ASSERT_TRUE(model.Fit(dataset.features, dataset.labels).ok());
  const auto pred = model.Predict(dataset.features).ValueOrDie();
  EXPECT_GT(OneMinusRae(dataset.labels, pred), 0.85);
}

TEST(LinearSvmTest, TaskAccessor) {
  LinearSvm::Options options;
  options.task = data::TaskType::kRegression;
  EXPECT_EQ(LinearSvm(options).task(), data::TaskType::kRegression);
  EXPECT_EQ(LinearSvm().task(), data::TaskType::kClassification);
}

TEST(LinearSvmTest, ErrorsOnBadInput) {
  LinearSvm model;
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2})).ok());
  EXPECT_FALSE(model.Fit(x, {1.0}).ok());
  EXPECT_FALSE(model.Predict(x).ok());
}

}  // namespace
}  // namespace eafe::ml
