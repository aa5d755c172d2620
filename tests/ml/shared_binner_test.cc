#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <vector>

#include "data/dataframe.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "runtime/thread_pool.h"
#include "simd/simd.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::LabelAccuracy;
using testing::MakeBlobs;
using testing::MakeXor;

/// Classification data whose values live on a small integer grid. Every
/// column has exactly `grid` distinct values, so with n large every
/// bootstrap sample contains all of them and a per-tree binner computes
/// the same cuts as the shared full-frame binner — the basis of the
/// shared-vs-per-tree identity test.
data::Dataset MakeQuantized(size_t n, size_t columns, uint64_t seed,
                            size_t grid = 5) {
  Rng rng(seed);
  data::Dataset dataset;
  dataset.name = "quantized";
  dataset.task = data::TaskType::kClassification;
  std::vector<std::vector<double>> values(columns, std::vector<double>(n));
  dataset.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (size_t c = 0; c < columns; ++c) {
      values[c][i] = static_cast<double>(rng.UniformInt(grid)) -
                     static_cast<double>(grid / 2);
      sum += (c % 2 == 0 ? 1.0 : -1.0) * values[c][i];
    }
    dataset.labels[i] = sum > 0.0 ? 1.0 : 0.0;
  }
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("q" + std::to_string(c),
                                            std::move(values[c])))
                    .ok());
  }
  return dataset;
}

/// Wide continuous classification data (p columns) for the
/// feature-parallel histogram build path.
data::Dataset MakeWide(size_t n, size_t columns, uint64_t seed) {
  Rng rng(seed);
  data::Dataset dataset;
  dataset.name = "wide";
  dataset.task = data::TaskType::kClassification;
  std::vector<std::vector<double>> values(columns, std::vector<double>(n));
  dataset.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < columns; ++c) values[c][i] = rng.Normal();
    dataset.labels[i] = values[0][i] + values[1][i] > 0.0 ? 1.0 : 0.0;
  }
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("w" + std::to_string(c),
                                            std::move(values[c])))
                    .ok());
  }
  return dataset;
}

RandomForest::Options ForestOptions(bool share_binner, uint64_t seed = 17) {
  RandomForest::Options options;
  options.seed = seed;
  options.share_binner = share_binner;
  return options;
}

/// The raw-double reference walk over a shared-binner forest's image:
/// every tree routes row r on x[feature] <= cut(feature, split_bin), with
/// no codes anywhere, and rows aggregate as RandomForest defines it
/// (majority vote with the lowest class id on ties, or the mean leaf
/// value; `proba` takes the mean leaf fraction instead).
std::vector<double> PredictThresholds(const RandomForest& forest,
                                      const data::DataFrame& x,
                                      bool proba) {
  const FlatTreeModel& image = forest.image();
  const FeatureBinner& binner = *forest.binner();
  const bool vote =
      !proba && forest.task() == data::TaskType::kClassification;
  std::vector<double> out(x.num_rows(), 0.0);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    std::vector<uint32_t> votes(static_cast<size_t>(forest.num_classes()),
                                0);
    for (size_t t = 0; t < image.num_trees(); ++t) {
      size_t node = image.tree_offsets[t];
      while (image.feature[node] >= 0) {
        const size_t f = static_cast<size_t>(image.feature[node]);
        const double threshold = binner.cut(f, image.split_bin[node]);
        node = static_cast<size_t>(x.column(f)[r] <= threshold
                                       ? image.left[node]
                                       : image.right[node]);
      }
      if (vote) {
        ++votes[static_cast<size_t>(image.value[node])];
      } else {
        out[r] += proba ? image.proba[node] : image.value[node];
      }
    }
    out[r] = vote ? static_cast<double>(
                        std::max_element(votes.begin(), votes.end()) -
                        votes.begin())
                  : out[r] / static_cast<double>(image.num_trees());
  }
  return out;
}

// On quantized data every bootstrap contains every distinct value, so the
// per-tree binner cuts equal the shared full-frame cuts and the two fit
// paths must produce bit-identical forests for the same seed.
TEST(SharedBinnerForestTest, SharedFitMatchesPerTreeFitOnQuantizedData) {
  const data::Dataset dataset = MakeQuantized(600, 4, 21);
  const data::Dataset query = MakeQuantized(200, 4, 22);
  RandomForest shared(ForestOptions(/*share_binner=*/true));
  RandomForest per_tree(ForestOptions(/*share_binner=*/false));
  ASSERT_TRUE(shared.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(per_tree.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(shared.Predict(dataset.features).ValueOrDie(),
            per_tree.Predict(dataset.features).ValueOrDie());
  EXPECT_EQ(shared.Predict(query.features).ValueOrDie(),
            per_tree.Predict(query.features).ValueOrDie());
  EXPECT_EQ(shared.PredictProba(query.features).ValueOrDie(),
            per_tree.PredictProba(query.features).ValueOrDie());
  EXPECT_EQ(shared.FeatureImportances(), per_tree.FeatureImportances());
}

// code(v) <= split_bin exactly when v <= cut(split_bin) for *any* value,
// so the forest's walk over codes must match the raw-double reference
// walk over the same trees even when binning is lossy (2000 rows, 255
// bins) and the query frame holds values never seen in training.
TEST(SharedBinnerForestTest, CodedPredictMatchesDoublePredict) {
  const data::Dataset dataset = MakeXor(2000, 31);
  const data::Dataset query = MakeXor(500, 32);
  RandomForest forest(ForestOptions(/*share_binner=*/true));
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(forest.Predict(dataset.features).ValueOrDie(),
            PredictThresholds(forest, dataset.features, false));
  EXPECT_EQ(forest.Predict(query.features).ValueOrDie(),
            PredictThresholds(forest, query.features, false));
  EXPECT_EQ(forest.PredictProba(query.features).ValueOrDie(),
            PredictThresholds(forest, query.features, true));
}

TEST(SharedBinnerForestTest, CodedPredictMatchesDoublePredictWhenLossless) {
  const data::Dataset dataset = MakeBlobs(150, 33);
  RandomForest forest(ForestOptions(/*share_binner=*/true));
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(forest.Predict(dataset.features).ValueOrDie(),
            PredictThresholds(forest, dataset.features, false));
}

// The zero-per-tree-work guarantee, by counter: a 10k-row forest fit bins
// the frame exactly once and never materializes a bootstrap sub-frame,
// and prediction never re-fits a binner.
TEST(SharedBinnerForestTest, ForestFitBinsOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(10000, 41);
  RandomForest forest;  // Defaults: histogram, shared binner.
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_EQ(data::DataFrame::TotalSelectRows(), 0u);
  const auto pred = forest.Predict(dataset.features).ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);  // Predict encodes, never fits.
  EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
}

// Cross-validation probes SharedBinnerModel: one bin of the frame serves
// every fold and every tree inside every fold, with no fold
// materialization anywhere.
TEST(SharedBinnerForestTest, CrossValidationBinsOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(1500, 43);
  CvOptions cv;
  cv.folds = 5;
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  const double score =
      CrossValidateScore([] { return std::make_unique<RandomForest>(); },
                         dataset, cv)
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 1u);
  EXPECT_EQ(data::DataFrame::TotalSelectRows(), 0u);
  EXPECT_GT(score, 0.85);
}

// Held-out fold rows gather their codes once, and each tree walks them
// in one dispatch: an 8-tree forest over 3 folds walks 24 times.
TEST(SharedBinnerForestTest, CrossValidationWalksOncePerFoldAndTree) {
  const data::Dataset dataset = MakeXor(600, 46);
  CvOptions cv;
  cv.folds = 3;
  simd::ResetDispatchCounts();
  const double score =
      CrossValidateScore(
          [] {
            RandomForest::Options options;
            options.num_trees = 8;
            return std::make_unique<RandomForest>(options);
          },
          dataset, cv)
          .ValueOrDie();
  EXPECT_EQ(simd::DispatchCount(simd::Kernel::kWalk, simd::Level::kScalar) +
                simd::DispatchCount(simd::Kernel::kWalk, simd::Level::kAvx2),
            24u);
  EXPECT_GT(score, 0.85);
}

// One fitted forest serves many threads at once (a forest-backed FPE
// model filters on every pool worker): each walk keeps its scratch in the
// call, so concurrent predicts must each return the serial result.
TEST(SharedBinnerForestTest, ConcurrentPredictsMatchSerial) {
  const data::Dataset dataset = MakeXor(1200, 47);
  const data::Dataset query = MakeXor(300, 48);
  RandomForest forest(ForestOptions(/*share_binner=*/true));
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  std::vector<size_t> rows;
  for (size_t r = 0; r < dataset.num_rows(); r += 3) rows.push_back(r);
  const std::vector<double> predict =
      forest.Predict(query.features).ValueOrDie();
  const std::vector<double> proba =
      forest.PredictProba(query.features).ValueOrDie();
  const std::vector<double> binned =
      forest.PredictBinnedRows(rows).ValueOrDie();

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 8;
  runtime::ThreadPool pool(kThreads);
  std::vector<std::future<void>> done;
  std::vector<size_t> mismatches(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    done.push_back(pool.Submit([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        mismatches[t] += forest.Predict(query.features).ValueOrDie() !=
                         predict;
        mismatches[t] += forest.PredictProba(query.features).ValueOrDie() !=
                         proba;
        mismatches[t] += forest.PredictBinnedRows(rows).ValueOrDie() !=
                         binned;
      }
    }));
  }
  for (std::future<void>& f : done) f.get();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

// The exact strategy declines sharing (BinFrame returns null) and CV must
// fall back to the materialized path and still work.
TEST(SharedBinnerForestTest, ExactStrategyFallsBackToMaterializedCv) {
  const data::Dataset dataset = MakeXor(300, 44);
  CvOptions cv;
  cv.folds = 3;
  FeatureBinner::ResetTotalFits();
  const double score =
      CrossValidateScore(
          [] {
            RandomForest::Options options;
            options.split_strategy = SplitStrategy::kExact;
            return std::make_unique<RandomForest>(options);
          },
          dataset, cv)
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 0u);
  EXPECT_GT(score, 0.85);
}

TEST(SharedBinnerForestTest, FitBinnedRejectsBadInputs) {
  const data::Dataset dataset = MakeXor(100, 45);
  RandomForest forest;
  auto binner = forest.BinFrame(dataset.features).ValueOrDie();
  ASSERT_NE(binner, nullptr);
  // Row id out of range, empty rows, and label-count mismatch all fail.
  EXPECT_FALSE(forest.FitBinned(binner, dataset.labels, {100}).ok());
  EXPECT_FALSE(forest.FitBinned(binner, dataset.labels, {}).ok());
  std::vector<double> short_labels(50, 0.0);
  EXPECT_FALSE(forest.FitBinned(binner, short_labels, {0, 1}).ok());
  EXPECT_FALSE(forest.FitBinned(nullptr, dataset.labels, {0, 1}).ok());
  // PredictBinnedRows needs a shared fit first.
  EXPECT_FALSE(forest.PredictBinnedRows({0}).ok());
}

// Wide frames (p >= 200) cross the feature-parallel histogram threshold:
// the per-feature slices are disjoint and each feature walks rows in
// index order, so fits must be bit-identical at every thread count, for
// both a standalone tree and a shared-binner forest.
TEST(SharedBinnerForestTest, WideFrameFitsIdenticalAcrossThreadCounts) {
  const data::Dataset dataset = MakeWide(2000, 200, 51);
  DecisionTree::Options tree_options;
  tree_options.split_strategy = SplitStrategy::kHistogram;
  tree_options.seed = 7;

  runtime::SetGlobalThreads(1);
  DecisionTree serial_tree(tree_options);
  ASSERT_TRUE(serial_tree.Fit(dataset.features, dataset.labels).ok());
  const auto serial_tree_pred =
      serial_tree.Predict(dataset.features).ValueOrDie();
  RandomForest serial_forest(ForestOptions(true));
  ASSERT_TRUE(serial_forest.Fit(dataset.features, dataset.labels).ok());
  const auto serial_forest_pred =
      serial_forest.Predict(dataset.features).ValueOrDie();

  for (size_t threads : {2u, 3u, 4u, 8u}) {
    runtime::SetGlobalThreads(threads);
    DecisionTree tree(tree_options);
    ASSERT_TRUE(tree.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(tree.node_count(), serial_tree.node_count());
    EXPECT_EQ(tree.Predict(dataset.features).ValueOrDie(), serial_tree_pred);
    RandomForest forest(ForestOptions(true));
    ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(forest.Predict(dataset.features).ValueOrDie(),
              serial_forest_pred);
  }
  runtime::SetGlobalThreads(1);
}

}  // namespace
}  // namespace eafe::ml
