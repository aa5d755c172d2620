#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <vector>

#include "data/dataframe.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/linear.h"
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
/// bootstrap sample contains all of them and a binner fitted on the
/// sample computes the same cuts as the full-frame binner — the basis of
/// the shared-vs-sub-frame identity test.
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

RandomForest::Options ForestOptions() {
  RandomForest::Options options;
  options.seed = 17;
  return options;
}

/// The raw-double reference walk over a forest's image:
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

// On quantized data every bootstrap contains every distinct value, so a
// binner fitted on the bootstrap sample cuts where the full-frame binner
// does: a tree trained through the full-frame codes on the bootstrap row
// view must be bit-identical to one fitted on the materialized sample.
TEST(SharedBinnerTreeTest, SharedFitMatchesSubFrameFitOnQuantizedData) {
  const data::Dataset dataset = MakeQuantized(600, 4, 21);
  const data::Dataset query = MakeQuantized(200, 4, 22);
  DecisionTree::Options options;
  options.max_features = 2;  // Feature sampling as in a forest's trees.
  Rng rng(23);
  for (uint64_t draw = 0; draw < 10; ++draw) {
    options.seed = 17 + draw;
    std::vector<size_t> rows(dataset.num_rows());
    for (size_t& row : rows) row = rng.UniformInt(dataset.num_rows());

    DecisionTree shared(options);
    const auto binner = shared.BinFrame(dataset.features).ValueOrDie();
    ASSERT_TRUE(shared.FitBinned(binner, dataset.labels, rows).ok());
    const data::Dataset sample = dataset.SelectRows(rows);
    DecisionTree sub_frame(options);
    ASSERT_TRUE(sub_frame.Fit(sample.features, sample.labels).ok());

    EXPECT_EQ(shared.node_count(), sub_frame.node_count()) << draw;
    EXPECT_EQ(shared.Predict(query.features).ValueOrDie(),
              sub_frame.Predict(query.features).ValueOrDie())
        << draw;
    EXPECT_EQ(shared.PredictProba(query.features).ValueOrDie(),
              sub_frame.PredictProba(query.features).ValueOrDie())
        << draw;
    EXPECT_EQ(shared.feature_importances(), sub_frame.feature_importances())
        << draw;
  }
}

// code(v) <= split_bin exactly when v <= cut(split_bin) for *any* value,
// so the forest's walk over codes must match the raw-double reference
// walk over the same trees even when binning is lossy (2000 rows, 255
// bins) and the query frame holds values never seen in training.
TEST(SharedBinnerForestTest, CodedPredictMatchesDoublePredict) {
  const data::Dataset dataset = MakeXor(2000, 31);
  const data::Dataset query = MakeXor(500, 32);
  RandomForest forest(ForestOptions());
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
  RandomForest forest(ForestOptions());
  ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
  EXPECT_EQ(forest.Predict(dataset.features).ValueOrDie(),
            PredictThresholds(forest, dataset.features, false));
}

// The zero-per-tree-work guarantee, by counter: a 10k-row forest fit bins
// the frame exactly once and never materializes a bootstrap sub-frame,
// and prediction never re-fits a binner.
TEST(SharedBinnerForestTest, ForestFitBinsOnceAndNeverSelectsRows) {
  const data::Dataset dataset = MakeXor(10000, 41);
  RandomForest forest;
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
  RandomForest forest(ForestOptions());
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

// A model that is no tree learner shares no bins, and CV must take the
// materialized path and still work.
TEST(SharedBinnerForestTest, NonTreeModelFallsBackToMaterializedCv) {
  const data::Dataset dataset = MakeBlobs(300, 44);
  CvOptions cv;
  cv.folds = 3;
  FeatureBinner::ResetTotalFits();
  data::DataFrame::ResetTotalSelectRows();
  const double score =
      CrossValidateScore(
          [] {
            LogisticRegression::Options options;
            options.epochs = 20;
            return std::make_unique<LogisticRegression>(options);
          },
          dataset, cv)
          .ValueOrDie();
  EXPECT_EQ(FeatureBinner::TotalFits(), 0u);
  EXPECT_GT(data::DataFrame::TotalSelectRows(), 0u);
  EXPECT_GT(score, 0.85);
}

/// Every binned-view rejection of the binned fits, then a predict by row
/// id before any fit: each learner runs the one binned-view check first.
void ExpectFitBinnedRejectsBadInputs(SharedBinnerModel* model) {
  const data::Dataset dataset = MakeXor(100, 45);
  auto binner = SharedBinnerModel::BinFrame(dataset.features).ValueOrDie();
  ASSERT_NE(binner, nullptr);
  const auto rejects = [&](std::shared_ptr<const FeatureBinner> view_binner,
                           const std::vector<double>& labels,
                           const std::vector<size_t>& rows) {
    return model->FitBinned(std::move(view_binner), labels, rows).code() ==
           StatusCode::kInvalidArgument;
  };
  // Row id out of range, empty rows, label-count mismatch, no labels, a
  // null binner and an unfitted one all fail.
  EXPECT_TRUE(rejects(binner, dataset.labels, {100}));
  EXPECT_TRUE(rejects(binner, dataset.labels, {}));
  EXPECT_TRUE(rejects(binner, std::vector<double>(50, 0.0), {0, 1}));
  EXPECT_TRUE(rejects(binner, {}, {0, 1}));
  EXPECT_TRUE(rejects(nullptr, dataset.labels, {0, 1}));
  EXPECT_TRUE(rejects(std::make_shared<const FeatureBinner>(),
                      dataset.labels, {0, 1}));
  EXPECT_FALSE(model->fitted());
  // PredictBinnedRows needs a fit first.
  EXPECT_EQ(model->PredictBinnedRows({0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SharedBinnerForestTest, FitBinnedRejectsBadInputs) {
  RandomForest forest;
  ExpectFitBinnedRejectsBadInputs(&forest);
  DecisionTree tree;
  ExpectFitBinnedRejectsBadInputs(&tree);
  GradientBoostedTrees booster;
  ExpectFitBinnedRejectsBadInputs(&booster);
}

// Wide frames (p >= 200) cross the feature-parallel histogram threshold:
// the per-feature slices are disjoint and each feature walks rows in
// index order, so fits must be bit-identical at every thread count, for
// both a standalone tree and a forest.
TEST(SharedBinnerForestTest, WideFrameFitsIdenticalAcrossThreadCounts) {
  const data::Dataset dataset = MakeWide(2000, 200, 51);
  DecisionTree::Options tree_options;
  tree_options.seed = 7;

  runtime::SetGlobalThreads(1);
  DecisionTree serial_tree(tree_options);
  ASSERT_TRUE(serial_tree.Fit(dataset.features, dataset.labels).ok());
  const auto serial_tree_pred =
      serial_tree.Predict(dataset.features).ValueOrDie();
  RandomForest serial_forest(ForestOptions());
  ASSERT_TRUE(serial_forest.Fit(dataset.features, dataset.labels).ok());
  const auto serial_forest_pred =
      serial_forest.Predict(dataset.features).ValueOrDie();

  for (size_t threads : {2u, 3u, 4u, 8u}) {
    runtime::SetGlobalThreads(threads);
    DecisionTree tree(tree_options);
    ASSERT_TRUE(tree.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(tree.node_count(), serial_tree.node_count());
    EXPECT_EQ(tree.Predict(dataset.features).ValueOrDie(), serial_tree_pred);
    RandomForest forest(ForestOptions());
    ASSERT_TRUE(forest.Fit(dataset.features, dataset.labels).ok());
    EXPECT_EQ(forest.Predict(dataset.features).ValueOrDie(),
              serial_forest_pred);
  }
  runtime::SetGlobalThreads(1);
}

}  // namespace
}  // namespace eafe::ml
