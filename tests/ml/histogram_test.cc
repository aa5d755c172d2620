#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/histogram_builder.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "runtime/thread_pool.h"
#include "simd/simd.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeWide;
using testing::MakeXor;

TEST(SplitStrategyTest, StringRoundTrip) {
  EXPECT_EQ(SplitStrategyToString(SplitStrategy::kExact), "exact");
  EXPECT_EQ(SplitStrategyToString(SplitStrategy::kHistogram), "histogram");
  EXPECT_EQ(SplitStrategyFromString("exact").ValueOrDie(),
            SplitStrategy::kExact);
  EXPECT_EQ(SplitStrategyFromString("Histogram").ValueOrDie(),
            SplitStrategy::kHistogram);
  EXPECT_EQ(SplitStrategyFromString("hist").ValueOrDie(),
            SplitStrategy::kHistogram);
  EXPECT_FALSE(SplitStrategyFromString("sorted").ok());
}

TEST(FeatureBinnerTest, LosslessWhenDistinctValuesFit) {
  data::DataFrame x;
  ASSERT_TRUE(
      x.AddColumn(data::Column("f", {3.0, 1.0, 2.0, 2.0, 1.0, 3.0})).ok());
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x).ok());
  ASSERT_EQ(binner.num_bins(0), 3u);
  // Codes follow value order; equal values share a bin.
  EXPECT_EQ(binner.code(0, 1), binner.code(0, 4));  // Both 1.0.
  EXPECT_EQ(binner.code(0, 0), binner.code(0, 5));  // Both 3.0.
  EXPECT_LT(binner.code(0, 1), binner.code(0, 2));
  EXPECT_LT(binner.code(0, 2), binner.code(0, 0));
  // Cuts are midpoints between adjacent distinct values.
  EXPECT_DOUBLE_EQ(binner.cut(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(binner.cut(0, 1), 2.5);
}

TEST(FeatureBinnerTest, ConstantColumnGetsOneBin) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("c", {7.0, 7.0, 7.0})).ok());
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x).ok());
  EXPECT_EQ(binner.num_bins(0), 1u);
}

TEST(FeatureBinnerTest, CapsBinsOnWideColumns) {
  const size_t n = 5000;
  std::vector<double> values(n);
  Rng rng(3);
  for (double& v : values) v = rng.Normal();
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", values)).ok());
  FeatureBinner::Options options;
  options.max_bins = 32;
  FeatureBinner binner(options);
  ASSERT_TRUE(binner.Fit(x).ok());
  EXPECT_LE(binner.num_bins(0), 32u);
  EXPECT_GE(binner.num_bins(0), 30u);  // Continuous data fills the budget.
  // Encoding is order-preserving: larger value -> bin at least as large.
  for (size_t i = 1; i < n; ++i) {
    if (values[i] > values[i - 1]) {
      EXPECT_GE(binner.code(0, i), binner.code(0, i - 1));
    }
  }
  // Cuts partition the value range consistently with the codes.
  for (size_t i = 0; i < n; ++i) {
    const uint8_t bin = binner.code(0, i);
    if (bin > 0) {
      EXPECT_GT(values[i], binner.cut(0, bin - 1));
    }
    if (bin + 1u < binner.num_bins(0)) {
      EXPECT_LE(values[i], binner.cut(0, bin));
    }
  }
}

TEST(FeatureBinnerTest, RejectsBadInput) {
  FeatureBinner binner;
  data::DataFrame empty;
  EXPECT_FALSE(binner.Fit(empty).ok());
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1.0, 2.0})).ok());
  FeatureBinner::Options options;
  options.max_bins = 1;
  EXPECT_FALSE(FeatureBinner(options).Fit(x).ok());
  options.max_bins = 257;
  EXPECT_FALSE(FeatureBinner(options).Fit(x).ok());
}

TEST(HistogramBuilderTest, SubtractionMatchesDirectBuild) {
  const data::Dataset dataset = MakeBlobs(120, 5);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(dataset.features).ok());
  const BinnedLabels labels =
      BinnedLabels::Create(data::TaskType::kClassification, dataset.labels)
          .ValueOrDie();
  HistogramBuilder builder(&binner, data::TaskType::kClassification, &labels,
                           &dataset.labels);
  std::vector<size_t> all(120), left, right;
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
    (i % 3 == 0 ? left : right).push_back(i);
  }
  const auto build = [&](const std::vector<size_t>& rows, Histogram* hist) {
    builder.Totals(rows, hist);
    builder.Build(rows, builder.all_features(), hist);
  };
  Histogram parent, left_hist, expected_right;
  build(all, &parent);
  build(left, &left_hist);
  build(right, &expected_right);
  Histogram derived;
  builder.Subtract(parent, left_hist, &derived);
  EXPECT_EQ(derived.data, expected_right.data);
  EXPECT_EQ(derived.totals, expected_right.totals);
}

// A build over a feature subset fills exactly the listed slices, bit for
// bit as an all-features build over the same rows does, in every mode.
// It zeroes those slices first, so a reused histogram keeps no stale
// counts from a previous node.
TEST(HistogramBuilderTest, FeatureSubsetBuildMatchesAllFeaturesSlices) {
  const data::Dataset dataset = MakeWide(400, 12, 9);
  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(dataset.features).ok());
  const BinnedLabels classes =
      BinnedLabels::Create(data::TaskType::kClassification, dataset.labels)
          .ValueOrDie();
  const BinnedLabels none =
      BinnedLabels::Create(data::TaskType::kRegression, dataset.labels)
          .ValueOrDie();
  std::vector<double> target(400), grad(400), hess(400);
  for (size_t i = 0; i < target.size(); ++i) {
    target[i] = dataset.features.column(2)[i] + 0.25 * dataset.labels[i];
    grad[i] = dataset.labels[i] - 0.3 * dataset.features.column(3)[i];
    hess[i] = 0.2 + 0.1 * static_cast<double>(i % 5);
  }
  const HistogramBuilder builders[] = {
      HistogramBuilder(&binner, data::TaskType::kClassification, &classes,
                       &dataset.labels),
      HistogramBuilder(&binner, data::TaskType::kRegression, &none, &target),
      HistogramBuilder(&binner, &grad, &hess)};
  std::vector<size_t> rows;  // A bootstrap-like view with repeats.
  for (size_t i = 0; i < 300; ++i) rows.push_back((i * 7) % 400);
  const std::vector<size_t> subset = {9, 2, 5};
  for (const HistogramBuilder& builder : builders) {
    Histogram full, part, reused;
    builder.Build(rows, builder.all_features(), &full);
    builder.Build(rows, subset, &part);
    std::vector<size_t> other(rows.begin(), rows.begin() + 50);
    builder.Build(other, builder.all_features(), &reused);
    builder.Build(rows, subset, &reused);
    ASSERT_EQ(part.data.size(), builder.total_size());
    size_t offset = 0;  // Slices are laid out in feature order.
    for (size_t f = 0; f < binner.num_features(); ++f) {
      const size_t width = binner.num_bins(f) * builder.entry_width();
      const auto slice = [&](const Histogram& hist) {
        return std::vector<double>(hist.data.begin() + offset,
                                   hist.data.begin() + offset + width);
      };
      if (std::find(subset.begin(), subset.end(), f) != subset.end()) {
        EXPECT_EQ(slice(part), slice(full)) << "feature " << f;
        EXPECT_EQ(slice(reused), slice(full))
            << "feature " << f << " (reused histogram)";
      }
      offset += width;
    }
  }
}

// A forest node scans only the max_features columns it samples, so it
// accumulates histograms for only those: each node that reaches its split
// search dispatches at most ceil(sqrt(32)) = 6 class-count kernels, and
// leaves cut off by depth or size dispatch none.
TEST(HistogramBuilderTest, ForestNodesAccumulateOnlySampledFeatures) {
  const data::Dataset dataset = MakeWide(1500, 32, 5);
  RandomForest::Options options;
  options.num_trees = 8;
  RandomForest forest(options);
  simd::ResetDispatchCounts();
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  const uint64_t dispatches =
      simd::DispatchCount(simd::Kernel::kClassCounts, simd::Level::kScalar) +
      simd::DispatchCount(simd::Kernel::kClassCounts, simd::Level::kAvx2);
  const size_t nodes = forest.image().num_nodes();
  const size_t max_features = 6;
  EXPECT_GT(dispatches, 0u);
  EXPECT_LE(dispatches, nodes * max_features);
}

// Restores the dispatch tier a test forced via SetActiveLevel.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::SetActiveLevel(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level saved_;
};

// The histogram kernels and the flat walk have one tier, so they count
// their dispatches under kScalar even when the process runs at kAvx2;
// the dispatch gauges then name the tier that ran. A forced AVX2 fit and
// predict of each histogram model must leave every such count at kAvx2
// zero.
TEST(HistogramBuilderTest, SingleTierKernelsCountAtScalarUnderAvx2) {
  if (!simd::LevelSupported(simd::Level::kAvx2)) {
    GTEST_SKIP() << "AVX2 unsupported on this CPU";
  }
  LevelGuard guard;
  simd::SetActiveLevel(simd::Level::kAvx2);
  simd::ResetDispatchCounts();
  const data::Dataset classification = MakeWide(600, 8, 31);
  const data::Dataset regression = MakeSmoothRegression(600, 32);
  for (const data::Dataset* dataset : {&classification, &regression}) {
    RandomForest::Options options;
    options.task = dataset->task;
    options.num_trees = 4;
    RandomForest forest(options);
    ASSERT_TRUE(forest.Fit(dataset->features, dataset->labels).ok());
    ASSERT_TRUE(forest.Predict(dataset->features).ok());
  }
  GradientBoostedTrees::Options booster_options;
  booster_options.rounds = 5;
  // Few bins make the histogram small next to the node, so the booster
  // derives its larger children by subtraction.
  booster_options.max_bins = 16;
  GradientBoostedTrees booster(booster_options);
  ASSERT_TRUE(
      booster.Fit(classification.features, classification.labels).ok());
  ASSERT_TRUE(booster.Predict(classification.features).ok());

  for (const simd::Kernel kernel :
       {simd::Kernel::kClassCounts, simd::Kernel::kTriples,
        simd::Kernel::kSubtract, simd::Kernel::kSplitScan,
        simd::Kernel::kWalk}) {
    EXPECT_EQ(simd::DispatchCount(kernel, simd::Level::kAvx2), 0u)
        << simd::KernelName(kernel);
    EXPECT_GT(simd::DispatchCount(kernel, simd::Level::kScalar), 0u)
        << simd::KernelName(kernel);
  }
}

// With every sample value distinct and n <= max_bins, the binning is
// lossless and histogram split finding scans exactly the thresholds the
// exact backend scans — the trees must agree on the training partition.
TEST(HistogramEquivalenceTest, AgreesWithExactWhenBinningIsLossless) {
  const data::Dataset dataset = MakeXor(200, 21);  // Continuous, n <= 255.
  DecisionTree::Options options;
  options.split_strategy = SplitStrategy::kExact;
  DecisionTree exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  DecisionTree histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(exact.node_count(), histogram.node_count());
  EXPECT_EQ(exact.Predict(dataset.features).ValueOrDie(),
            histogram.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(exact.PredictProba(dataset.features).ValueOrDie(),
            histogram.PredictProba(dataset.features).ValueOrDie());
}

TEST(HistogramEquivalenceTest, AgreesWithExactOnRegressionWhenLossless) {
  const data::Dataset dataset = MakeSmoothRegression(180, 22);
  DecisionTree::Options options;
  options.task = data::TaskType::kRegression;
  options.split_strategy = SplitStrategy::kExact;
  DecisionTree exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  DecisionTree histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(exact.node_count(), histogram.node_count());
  EXPECT_EQ(exact.Predict(dataset.features).ValueOrDie(),
            histogram.Predict(dataset.features).ValueOrDie());
}

TEST(HistogramEquivalenceTest, ClassificationAccuracyWithinTolerance) {
  const data::Dataset dataset = MakeXor(3000, 23);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kExact;
  RandomForest exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  const double exact_acc = LabelAccuracy(
      dataset.labels, exact.Predict(dataset.features).ValueOrDie());
  const double histogram_acc = LabelAccuracy(
      dataset.labels, histogram.Predict(dataset.features).ValueOrDie());
  EXPECT_GT(histogram_acc, 0.9);
  EXPECT_NEAR(histogram_acc, exact_acc, 0.02);
}

TEST(HistogramEquivalenceTest, RegressionScoreWithinTolerance) {
  const data::Dataset dataset = MakeSmoothRegression(3000, 24);
  RandomForest::Options options;
  options.task = data::TaskType::kRegression;
  options.split_strategy = SplitStrategy::kExact;
  RandomForest exact(options);
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest histogram(options);
  ASSERT_TRUE(exact.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(histogram.Fit(dataset.features, dataset.labels).ok());
  const double exact_score = OneMinusRae(
      dataset.labels, exact.Predict(dataset.features).ValueOrDie());
  const double histogram_score = OneMinusRae(
      dataset.labels, histogram.Predict(dataset.features).ValueOrDie());
  EXPECT_GT(histogram_score, 0.7);
  EXPECT_NEAR(histogram_score, exact_score, 0.02);
}

TEST(HistogramEquivalenceTest, MultiClassForestLearnsBlobs) {
  const data::Dataset dataset = MakeBlobs(600, 25);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_GT(LabelAccuracy(dataset.labels,
                          forest.Predict(dataset.features).ValueOrDie()),
            0.95);
}

TEST(HistogramEquivalenceTest, EvaluatorScoresWithinOnePercent) {
  // The acceptance bar: downstream CV scores of the two backends agree
  // within 1% on the equivalence datasets. Agreement here is statistical,
  // not bitwise: at deep nodes the exact backend centers thresholds
  // between node-local adjacent values while the histogram uses global
  // bin cuts, so held-out rows between the two can route differently.
  // Averaging over enough trees keeps the effect well inside 1%.
  for (const data::Dataset& dataset :
       {MakeSeparable(1000, 26), MakeSmoothRegression(1000, 27)}) {
    EvaluatorOptions options;
    options.cv_folds = 3;
    options.rf_trees = 30;
    options.split_strategy = SplitStrategy::kExact;
    const double exact_score =
        TaskEvaluator(options).Score(dataset).ValueOrDie();
    options.split_strategy = SplitStrategy::kHistogram;
    const double histogram_score =
        TaskEvaluator(options).Score(dataset).ValueOrDie();
    EXPECT_NEAR(histogram_score, exact_score, 0.01) << dataset.name;
  }
}

TEST(HistogramDeterminismTest, RepeatedFitsAreBitIdentical) {
  const data::Dataset dataset = MakeXor(500, 28);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kHistogram;
  RandomForest a(options), b(options);
  ASSERT_TRUE(a.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(b.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(a.Predict(dataset.features).ValueOrDie(),
            b.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(a.PredictProba(dataset.features).ValueOrDie(),
            b.PredictProba(dataset.features).ValueOrDie());
  EXPECT_EQ(a.FeatureImportances(), b.FeatureImportances());
}

TEST(HistogramDeterminismTest, FitIsIdenticalAcrossThreadCounts) {
  // PR 1's determinism contract extended to the histogram strategy:
  // binning and per-node histogram work are serial per tree, so parallel
  // tree training stays bit-identical to the serial path.
  const data::Dataset dataset = MakeBlobs(400, 29);
  RandomForest::Options options;
  options.split_strategy = SplitStrategy::kHistogram;
  runtime::SetGlobalThreads(1);
  RandomForest serial(options);
  ASSERT_TRUE(serial.Fit(dataset.features, dataset.labels).ok());
  runtime::SetGlobalThreads(4);
  RandomForest parallel(options);
  ASSERT_TRUE(parallel.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(serial.Predict(dataset.features).ValueOrDie(),
            parallel.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(serial.PredictProba(dataset.features).ValueOrDie(),
            parallel.PredictProba(dataset.features).ValueOrDie());
  EXPECT_EQ(serial.FeatureImportances(), parallel.FeatureImportances());
  runtime::SetGlobalThreads(1);
}

TEST(HistogramTreeTest, RejectsNegativeClassLabels) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1.0, 2.0, 3.0, 4.0})).ok());
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit(x, {0.0, -1.0, 0.0, 1.0}).ok());
}

}  // namespace
}  // namespace eafe::ml
