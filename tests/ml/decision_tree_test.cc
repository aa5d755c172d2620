#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/metrics.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::ExpectClassIdRejected;
using testing::LabelAccuracy;
using testing::MakeSeparable;
using testing::MakeSmoothRegression;
using testing::MakeXor;

// Every case checks the exact oracle (FitExact); where its assertions
// hold unchanged for the histogram tree (Fit), that fit is checked too.
enum class FitKind { kExact, kHistogram };

constexpr FitKind kBothFits[] = {FitKind::kExact, FitKind::kHistogram};

Status FitTree(DecisionTree* tree, FitKind kind, const data::DataFrame& x,
               const std::vector<double>& y) {
  return kind == FitKind::kExact ? tree->FitExact(x, y) : tree->Fit(x, y);
}

const char* FitName(FitKind kind) {
  return kind == FitKind::kExact ? "FitExact" : "Fit";
}

TEST(DecisionTreeTest, XorIsHardForGreedySplits) {
  // Pure XOR has zero first-split Gini gain for any threshold; a single
  // greedy tree only improves via sampling noise. Documented behaviour:
  // clearly better than chance, clearly below the forest's accuracy.
  const data::Dataset dataset = MakeXor(400, 1);
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    const auto pred = tree.Predict(dataset.features).ValueOrDie();
    EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.6);
  }
}

TEST(DecisionTreeTest, LearnsHierarchicalPattern) {
  // label = x0 > 0 ? (x1 > 0.3) : 0 — greedy splits find this exactly.
  Rng rng(12);
  const size_t n = 400;
  std::vector<double> x0(n), x1(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    x0[i] = rng.Uniform(-1.0, 1.0);
    x1[i] = rng.Uniform(-1.0, 1.0);
    labels[i] = x0[i] > 0.0 && x1[i] > 0.3 ? 1.0 : 0.0;
  }
  data::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(data::Column("x0", x0)).ok());
  ASSERT_TRUE(frame.AddColumn(data::Column("x1", x1)).ok());
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, frame, labels).ok());
    const auto pred = tree.Predict(frame).ValueOrDie();
    EXPECT_GT(LabelAccuracy(labels, pred), 0.97);
    EXPECT_GT(tree.node_count(), 3u);
  }
}

TEST(DecisionTreeTest, LearnsSeparable) {
  const data::Dataset dataset = MakeSeparable(300, 2);
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    const auto pred = tree.Predict(dataset.features).ValueOrDie();
    EXPECT_GT(LabelAccuracy(dataset.labels, pred), 0.9);
  }
}

TEST(DecisionTreeTest, RegressionFitsSmoothFunction) {
  const data::Dataset dataset = MakeSmoothRegression(500, 3);
  DecisionTree::Options options;
  options.task = data::TaskType::kRegression;
  options.max_depth = 10;
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree(options);
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    const auto pred = tree.Predict(dataset.features).ValueOrDie();
    EXPECT_GT(OneMinusRae(dataset.labels, pred), 0.8);
  }
}

TEST(DecisionTreeTest, DepthZeroIsMajorityStump) {
  const data::Dataset dataset = MakeSeparable(100, 4);
  DecisionTree::Options options;
  options.max_depth = 0;
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree(options);
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    EXPECT_EQ(tree.node_count(), 1u);
    const auto pred = tree.Predict(dataset.features).ValueOrDie();
    // All predictions identical (the majority class).
    for (double p : pred) EXPECT_DOUBLE_EQ(p, pred[0]);
  }
}

TEST(DecisionTreeTest, PureNodeStopsSplitting) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2, 3, 4})).ok());
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, x, {1, 1, 1, 1}).ok());
    EXPECT_EQ(tree.node_count(), 1u);
  }
}

TEST(DecisionTreeTest, ConstantFeatureCannotSplit) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("c", {5, 5, 5, 5, 5, 5})).ok());
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, x, {0, 1, 0, 1, 0, 1}).ok());
    EXPECT_EQ(tree.node_count(), 1u);  // No usable split.
  }
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  const data::Dataset dataset = MakeXor(200, 5);
  DecisionTree::Options options;
  options.min_samples_leaf = 50;
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree(options);
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    // 200 samples with >= 50 per leaf allows at most 4 leaves (7 nodes).
    EXPECT_LE(tree.node_count(), 7u);
  }
}

TEST(DecisionTreeTest, PredictProbaInUnitInterval) {
  const data::Dataset dataset = MakeXor(200, 6);
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    const auto proba = tree.PredictProba(dataset.features).ValueOrDie();
    for (double p : proba) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(DecisionTreeTest, FeatureImportancesIdentifySignal) {
  const data::Dataset dataset = MakeSeparable(400, 7);
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    const auto& imp = tree.feature_importances();
    ASSERT_EQ(imp.size(), 3u);
    // x0 and x1 carry the signal; the noise column should matter least.
    EXPECT_GT(imp[0] + imp[1], imp[2]);
  }
}

TEST(DecisionTreeTest, ErrorsOnBadInput) {
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    data::DataFrame empty;
    EXPECT_FALSE(FitTree(&tree, kind, empty, {}).ok());
    data::DataFrame x;
    ASSERT_TRUE(x.AddColumn(data::Column("f", {1, 2})).ok());
    EXPECT_FALSE(FitTree(&tree, kind, x, {1.0}).ok());  // Length mismatch.
    EXPECT_FALSE(tree.Predict(x).ok());                 // Not fitted.
  }
}

// The exact fit converts its labels through BinnedLabels::Create, so a
// class id past data::kMaxClasses, or NaN, fails as it does for a
// histogram fit.
TEST(DecisionTreeTest, ExactFitRejectsClassIdsPastTheBound) {
  const data::Dataset dataset = MakeSeparable(50, 5);
  for (const FitKind kind : kBothFits) {
    for (const double bad : {3e9, static_cast<double>(data::kMaxClasses),
                             std::nan("")}) {
      SCOPED_TRACE(FitName(kind));
      std::vector<double> labels = dataset.labels;
      labels[3] = bad;
      DecisionTree tree;
      EXPECT_EQ(FitTree(&tree, kind, dataset.features, labels).code(),
                StatusCode::kInvalidArgument)
          << bad;
      EXPECT_FALSE(tree.fitted());
    }
  }
}

// A fractional label is no class id: the fit rejects it, as
// Dataset::Validate does, instead of training it as class 0.
TEST(DecisionTreeTest, ExactFitRejectsNonIntegralClassIds) {
  const data::Dataset dataset = MakeSeparable(50, 5);
  std::vector<double> labels = dataset.labels;
  labels[3] = 0.5;
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ExpectClassIdRejected(FitTree(&tree, kind, dataset.features, labels));
    EXPECT_FALSE(tree.fitted());
  }
}

TEST(DecisionTreeTest, PredictRejectsWrongWidth) {
  const data::Dataset dataset = MakeXor(50, 8);
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree tree;
    ASSERT_TRUE(FitTree(&tree, kind, dataset.features, dataset.labels).ok());
    data::DataFrame narrow;
    ASSERT_TRUE(narrow.AddColumn(data::Column("x0", {0.5})).ok());
    EXPECT_FALSE(tree.Predict(narrow).ok());
  }
}

TEST(DecisionTreeTest, DeterministicGivenSeed) {
  const data::Dataset dataset = MakeXor(200, 9);
  DecisionTree::Options options;
  options.max_features = 1;
  options.seed = 42;
  for (const FitKind kind : kBothFits) {
    SCOPED_TRACE(FitName(kind));
    DecisionTree a(options), b(options);
    ASSERT_TRUE(FitTree(&a, kind, dataset.features, dataset.labels).ok());
    ASSERT_TRUE(FitTree(&b, kind, dataset.features, dataset.labels).ok());
    EXPECT_EQ(a.Predict(dataset.features).ValueOrDie(),
              b.Predict(dataset.features).ValueOrDie());
  }
}

// The exact oracle keeps no binner and no image: it predicts frames
// through its raw thresholds, and predicting binned rows by id fails as
// it does before any fit. A binned fit replaced by an exact one loses
// its image too.
TEST(DecisionTreeTest, ExactFitHasNoBinnedPredict) {
  const data::Dataset dataset = MakeXor(100, 10);
  DecisionTree tree;
  EXPECT_EQ(tree.PredictBinnedRows({0}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(tree.Fit(dataset.features, dataset.labels).ok());
  ASSERT_TRUE(tree.PredictBinnedRows({0, 1}).ok());
  ASSERT_TRUE(tree.FitExact(dataset.features, dataset.labels).ok());
  EXPECT_TRUE(tree.fitted());
  EXPECT_EQ(tree.binner(), nullptr);
  EXPECT_EQ(tree.num_trees(), 0u);
  EXPECT_TRUE(tree.Predict(dataset.features).ok());
  EXPECT_EQ(tree.PredictBinnedRows({0, 1}).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace eafe::ml
