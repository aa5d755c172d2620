#include "ml/evaluator.h"

#include <gtest/gtest.h>

#include "ml/gaussian_process.h"
#include "ml/naive_bayes.h"
#include "tests/ml/test_util.h"

namespace eafe::ml {
namespace {

using testing::MakeSeparable;
using testing::MakeSmoothRegression;

TEST(ModelKindTest, StringRoundTrip) {
  for (ModelKind kind :
       {ModelKind::kRandomForest, ModelKind::kDecisionTree,
        ModelKind::kGradientBoostedTrees, ModelKind::kLogisticRegression,
        ModelKind::kLinearSvm, ModelKind::kNaiveBayesOrGp, ModelKind::kMlp,
        ModelKind::kResNet}) {
    const std::string name = ModelKindToString(kind);
    EXPECT_EQ(ModelKindFromString(name).ValueOrDie(), kind) << name;
  }
  EXPECT_FALSE(ModelKindFromString("bogus").ok());
}

TEST(TaskEvaluatorTest, ScoresClassification) {
  const data::Dataset dataset = MakeSeparable(200, 1);
  TaskEvaluator evaluator;
  const double score = evaluator.Score(dataset).ValueOrDie();
  EXPECT_GT(score, 0.8);
  EXPECT_LE(score, 1.0);
}

TEST(TaskEvaluatorTest, ScoresRegression) {
  const data::Dataset dataset = MakeSmoothRegression(200, 2);
  TaskEvaluator evaluator;
  const double score = evaluator.Score(dataset).ValueOrDie();
  EXPECT_GT(score, 0.3);
}

TEST(TaskEvaluatorTest, DeterministicScore) {
  const data::Dataset dataset = MakeSeparable(150, 4);
  TaskEvaluator evaluator;
  EXPECT_DOUBLE_EQ(evaluator.Score(dataset).ValueOrDie(),
                   evaluator.Score(dataset).ValueOrDie());
}

TEST(TaskEvaluatorTest, NaiveBayesOrGpDispatchesByTask) {
  EvaluatorOptions options;
  options.model = ModelKind::kNaiveBayesOrGp;
  TaskEvaluator evaluator(options);
  auto cls = evaluator.CreateModel(data::TaskType::kClassification);
  EXPECT_NE(dynamic_cast<GaussianNaiveBayes*>(cls.get()), nullptr);
  auto reg = evaluator.CreateModel(data::TaskType::kRegression);
  EXPECT_NE(dynamic_cast<GaussianProcessRegressor*>(reg.get()), nullptr);
}

class EvaluatorModelKindTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(EvaluatorModelKindTest, EveryModelKindScoresBothTasks) {
  EvaluatorOptions options;
  options.model = GetParam();
  options.cv_folds = 3;
  options.nn_epochs = 10;
  options.linear_epochs = 20;
  TaskEvaluator evaluator(options);

  const data::Dataset cls = MakeSeparable(90, 5);
  const auto cls_score = evaluator.Score(cls);
  ASSERT_TRUE(cls_score.ok()) << cls_score.status().ToString();
  EXPECT_GE(*cls_score, 0.0);
  EXPECT_LE(*cls_score, 1.0);

  const data::Dataset reg = MakeSmoothRegression(90, 6);
  const auto reg_score = evaluator.Score(reg);
  ASSERT_TRUE(reg_score.ok()) << reg_score.status().ToString();
  EXPECT_LE(*reg_score, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EvaluatorModelKindTest,
    ::testing::Values(ModelKind::kRandomForest, ModelKind::kDecisionTree,
                      ModelKind::kGradientBoostedTrees,
                      ModelKind::kLogisticRegression, ModelKind::kLinearSvm,
                      ModelKind::kNaiveBayesOrGp, ModelKind::kMlp,
                      ModelKind::kResNet),
    [](const ::testing::TestParamInfo<ModelKind>& param_info) {
      return ModelKindToString(param_info.param);
    });

}  // namespace
}  // namespace eafe::ml
