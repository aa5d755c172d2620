#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "data/dataframe.h"
#include "ml/cross_validation.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/metrics.h"
#include "runtime/thread_pool.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeWide;
using testing::MakeXor;

data::DataFrame OneColumn(std::vector<double> values) {
  data::DataFrame frame;
  EXPECT_TRUE(
      frame.AddColumn(data::Column("x", std::move(values))).ok());
  return frame;
}

// One squared-loss round on x = {0,1,2,3}, y = {0,0,1,1}, depth 1,
// learning rate 1, lambda 0 is fully hand-computable: base = mean = 0.5,
// gradients are {+.5,+.5,-.5,-.5}, the best boundary is between x=1 and
// x=2 (gain 0.5 vs 1/6 for the outer boundaries), and the Newton leaf
// weights -G/H are -(+1)/2 = -0.5 and +0.5 — so the booster reproduces
// the labels exactly.
TEST(GradientBoostedTreesTest, RegressionHandFixtureOneRound) {
  const data::DataFrame x = OneColumn({0.0, 1.0, 2.0, 3.0});
  const std::vector<double> y = {0.0, 0.0, 1.0, 1.0};
  GradientBoostedTrees::Options options;
  options.task = data::TaskType::kRegression;
  options.rounds = 1;
  options.learning_rate = 1.0;
  options.max_depth = 1;
  options.min_samples_leaf = 1;
  options.lambda = 0.0;
  GradientBoostedTrees booster(options);
  ASSERT_TRUE(booster.Fit(x, y).ok());
  EXPECT_EQ(booster.num_trees(), 1u);
  EXPECT_DOUBLE_EQ(booster.base_score(), 0.5);
  const std::vector<double> predicted = booster.Predict(x).ValueOrDie();
  ASSERT_EQ(predicted.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(predicted[i], y[i]);
}

// One logistic round on x = {0,1}, y = {0,1}: base log-odds = 0,
// gradients p - y = {+.5,-.5}, hessians p(1-p) = .25, so the single
// depth-1 tree's leaves are -G/H = -(+.5)/.25 = -2 and +2. Probabilities
// must equal sigmoid(-2)/sigmoid(+2) exactly and labels threshold to
// {0,1}.
TEST(GradientBoostedTreesTest, LogisticHandFixtureOneRound) {
  const data::DataFrame x = OneColumn({0.0, 1.0});
  const std::vector<double> y = {0.0, 1.0};
  GradientBoostedTrees::Options options;
  options.rounds = 1;
  options.learning_rate = 1.0;
  options.max_depth = 1;
  options.min_samples_leaf = 1;
  options.lambda = 0.0;
  GradientBoostedTrees booster(options);
  ASSERT_TRUE(booster.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(booster.base_score(), 0.0);
  const std::vector<double> proba =
      booster.PredictProba(x).ValueOrDie();
  ASSERT_EQ(proba.size(), 2u);
  EXPECT_DOUBLE_EQ(proba[0], std::exp(-2.0) / (1.0 + std::exp(-2.0)));
  EXPECT_DOUBLE_EQ(proba[1], 1.0 / (1.0 + std::exp(-2.0)));
  const std::vector<double> predicted = booster.Predict(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(predicted[0], 0.0);
  EXPECT_DOUBLE_EQ(predicted[1], 1.0);
}

TEST(GradientBoostedTreesTest, MoreRoundsReduceTrainingError) {
  const data::Dataset dataset = MakeSmoothRegression(400, 61);
  auto training_mse = [&](size_t rounds) {
    GradientBoostedTrees::Options options;
    options.task = data::TaskType::kRegression;
    options.rounds = rounds;
    GradientBoostedTrees booster(options);
    EXPECT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
    const std::vector<double> predicted =
        booster.Predict(dataset.features).ValueOrDie();
    double mse = 0.0;
    for (size_t i = 0; i < predicted.size(); ++i) {
      const double d = predicted[i] - dataset.labels[i];
      mse += d * d;
    }
    return mse / static_cast<double>(predicted.size());
  };
  EXPECT_LT(training_mse(50), training_mse(5));
}

// The shared-binner invariant, by counter: one whole booster fit (40
// rounds of trees) bins the frame exactly once and never materializes a
// row subset; prediction encodes but never re-fits a binner.
TEST(GradientBoostedTreesTest, FitBinsFrameOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(5000, 62);
  GradientBoostedTrees booster;
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  ASSERT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_EQ(data::DataFrame::TotalSelectRows(), 0u);
  const auto predicted = booster.Predict(dataset.features).ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_GT(LabelAccuracy(dataset.labels, predicted), 0.9);
}

// Cross-validation probes SharedBinnerModel on the booster exactly as it
// does on the forest: one bin of the frame serves every fold, held-out
// rows are scored by id.
TEST(GradientBoostedTreesTest, CrossValidationBinsOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(1500, 63);
  CvOptions cv;
  cv.folds = 5;
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  const double score =
      CrossValidateScore(
          [] { return std::make_unique<GradientBoostedTrees>(); }, dataset,
          cv)
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_EQ(data::DataFrame::TotalSelectRows(), 0u);
  EXPECT_GT(score, 0.8);
}

TEST(GradientBoostedTreesTest, PredictBinnedRowsMatchesPredict) {
  const data::Dataset dataset = MakeXor(800, 64);
  GradientBoostedTrees booster;
  ASSERT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
  std::vector<size_t> rows(dataset.labels.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  EXPECT_EQ(booster.PredictBinnedRows(rows).ValueOrDie(),
            booster.Predict(dataset.features).ValueOrDie());
}

// Wide frames cross the feature-parallel histogram threshold and the
// subsample exercises the pre-drawn per-round sampling: fits must be
// bit-identical across reruns and across every thread count.
TEST(GradientBoostedTreesTest, RerunsAndThreadCountsAreBitIdentical) {
  const data::Dataset dataset = MakeWide(800, 200, 65);
  GradientBoostedTrees::Options options;
  options.rounds = 15;
  options.subsample = 0.7;
  options.seed = 9;

  runtime::SetGlobalThreads(1);
  GradientBoostedTrees serial(options);
  ASSERT_TRUE(serial.Fit(dataset.features, dataset.labels).ok());
  const auto serial_proba =
      serial.PredictProba(dataset.features).ValueOrDie();

  GradientBoostedTrees rerun(options);
  ASSERT_TRUE(rerun.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(rerun.PredictProba(dataset.features).ValueOrDie(),
            serial_proba);

  for (size_t threads : {2u, 3u, 4u, 8u}) {
    runtime::SetGlobalThreads(threads);
    GradientBoostedTrees booster(options);
    ASSERT_TRUE(booster.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(booster.PredictProba(dataset.features).ValueOrDie(),
              serial_proba);
  }
  runtime::SetGlobalThreads(1);
}

// The evaluator's gbdt choice must clear the no-information bar: the
// majority-class weighted F1 for classification, and 0 (the mean
// predictor's 1-RAE) for regression.
TEST(GradientBoostedTreesTest, EvaluatorBeatsMeanPredictorBaseline) {
  EvaluatorOptions options;
  options.model = ModelKind::kGradientBoostedTrees;
  TaskEvaluator evaluator(options);

  const data::Dataset classification = MakeSeparable(300, 66);
  double majority = 0.0;
  for (double label : classification.labels) majority += label;
  const double majority_label =
      majority * 2.0 >= static_cast<double>(classification.labels.size())
          ? 1.0
          : 0.0;
  const std::vector<double> constant(classification.labels.size(),
                                     majority_label);
  const double baseline = F1Weighted(classification.labels, constant);
  EXPECT_GT(evaluator.Score(classification).ValueOrDie(), baseline + 0.1);

  const data::Dataset regression = MakeSmoothRegression(300, 67);
  EXPECT_GT(evaluator.Score(regression).ValueOrDie(), 0.3);
}

TEST(GradientBoostedTreesTest, RejectsBadInputs) {
  const data::Dataset dataset = MakeXor(100, 68);
  GradientBoostedTrees booster;
  // Predict before fit.
  EXPECT_FALSE(booster.Predict(dataset.features).ok());
  EXPECT_FALSE(booster.PredictBinnedRows({0}).ok());

  auto binner = booster.BinFrame(dataset.features).ValueOrDie();
  ASSERT_NE(binner, nullptr);
  EXPECT_FALSE(booster.FitBinned(binner, dataset.labels, {100}).ok());
  EXPECT_FALSE(booster.FitBinned(binner, dataset.labels, {}).ok());
  std::vector<double> short_labels(50, 0.0);
  EXPECT_FALSE(booster.FitBinned(binner, short_labels, {0, 1}).ok());
  EXPECT_FALSE(booster.FitBinned(nullptr, dataset.labels, {0, 1}).ok());
  // Boosting keeps per-row score state: bootstrap-style repeats refused.
  EXPECT_FALSE(booster.FitBinned(binner, dataset.labels, {0, 0, 1}).ok());

  // The logistic loss is binary; a three-class problem must be refused.
  const data::Dataset blobs = MakeBlobs(90, 69);
  EXPECT_FALSE(booster.Fit(blobs.features, blobs.labels).ok());

  GradientBoostedTrees::Options bad = GradientBoostedTrees::Options();
  bad.rounds = 0;
  EXPECT_FALSE(GradientBoostedTrees(bad)
                   .Fit(dataset.features, dataset.labels)
                   .ok());
  bad = GradientBoostedTrees::Options();
  bad.subsample = 0.0;
  EXPECT_FALSE(GradientBoostedTrees(bad)
                   .Fit(dataset.features, dataset.labels)
                   .ok());
}

}  // namespace
}  // namespace eafe::ml
