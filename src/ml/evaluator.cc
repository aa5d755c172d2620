#include "ml/evaluator.h"

#include "core/string_util.h"
#include "ml/decision_tree.h"
#include "ml/gaussian_process.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/resnet.h"

namespace eafe::ml {

std::string ModelKindToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomForest:
      return "rf";
    case ModelKind::kDecisionTree:
      return "tree";
    case ModelKind::kGradientBoostedTrees:
      return "gbdt";
    case ModelKind::kLogisticRegression:
      return "logreg";
    case ModelKind::kLinearSvm:
      return "svm";
    case ModelKind::kNaiveBayesOrGp:
      return "nb_gp";
    case ModelKind::kMlp:
      return "mlp";
    case ModelKind::kResNet:
      return "resnet";
  }
  return "?";
}

Result<ModelKind> ModelKindFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "rf" || lower == "random_forest") {
    return ModelKind::kRandomForest;
  }
  if (lower == "tree") return ModelKind::kDecisionTree;
  if (lower == "gbdt" || lower == "gbm" || lower == "boosting") {
    return ModelKind::kGradientBoostedTrees;
  }
  if (lower == "logreg" || lower == "logistic") {
    return ModelKind::kLogisticRegression;
  }
  if (lower == "svm") return ModelKind::kLinearSvm;
  if (lower == "nb_gp" || lower == "nb" || lower == "gp") {
    return ModelKind::kNaiveBayesOrGp;
  }
  if (lower == "mlp") return ModelKind::kMlp;
  if (lower == "resnet") return ModelKind::kResNet;
  return Status::InvalidArgument("unknown model kind: " + name);
}

TaskEvaluator::TaskEvaluator(const EvaluatorOptions& options)
    : options_(options) {}

std::unique_ptr<Model> TaskEvaluator::CreateModel(data::TaskType task) const {
  switch (options_.model) {
    case ModelKind::kRandomForest: {
      RandomForest::Options rf;
      rf.task = task;
      rf.num_trees = options_.rf_trees;
      rf.max_depth = options_.rf_max_depth;
      rf.seed = options_.seed;
      return std::make_unique<RandomForest>(rf);
    }
    case ModelKind::kDecisionTree: {
      DecisionTree::Options tree;
      tree.task = task;
      tree.max_depth = options_.rf_max_depth;
      tree.seed = options_.seed;
      return std::make_unique<DecisionTree>(tree);
    }
    case ModelKind::kGradientBoostedTrees: {
      GradientBoostedTrees::Options gbdt;
      gbdt.task = task;
      gbdt.seed = options_.seed;
      return std::make_unique<GradientBoostedTrees>(gbdt);
    }
    case ModelKind::kLogisticRegression: {
      if (task == data::TaskType::kRegression) {
        // Logistic regression has no regression form; use its closest
        // linear sibling (epsilon-insensitive linear SVR).
        LinearSvm::Options svr;
        svr.task = task;
        svr.epochs = options_.linear_epochs;
        svr.seed = options_.seed;
        return std::make_unique<LinearSvm>(svr);
      }
      LogisticRegression::Options lr;
      lr.epochs = options_.linear_epochs;
      lr.seed = options_.seed;
      return std::make_unique<LogisticRegression>(lr);
    }
    case ModelKind::kLinearSvm: {
      LinearSvm::Options svm;
      svm.task = task;
      svm.epochs = options_.linear_epochs;
      svm.seed = options_.seed;
      return std::make_unique<LinearSvm>(svm);
    }
    case ModelKind::kNaiveBayesOrGp: {
      if (task == data::TaskType::kClassification) {
        return std::make_unique<GaussianNaiveBayes>();
      }
      return std::make_unique<GaussianProcessRegressor>();
    }
    case ModelKind::kMlp: {
      Mlp::Options mlp;
      mlp.task = task;
      mlp.epochs = options_.nn_epochs;
      mlp.seed = options_.seed;
      return std::make_unique<Mlp>(mlp);
    }
    case ModelKind::kResNet: {
      TabularResNet::Options resnet;
      resnet.task = task;
      resnet.epochs = options_.nn_epochs;
      resnet.seed = options_.seed;
      return std::make_unique<TabularResNet>(resnet);
    }
  }
  return nullptr;
}

Result<double> TaskEvaluator::Score(const data::Dataset& dataset,
                                    const FeatureBinner* frame_bins) const {
  CvOptions cv;
  cv.folds = options_.cv_folds;
  cv.seed = options_.seed;
  const data::TaskType task = dataset.task;
  return CrossValidateScore([this, task] { return CreateModel(task); },
                            dataset, cv, frame_bins);
}

Result<std::shared_ptr<const FeatureBinner>> TaskEvaluator::BinFrame(
    const data::Dataset& frame) const {
  const std::unique_ptr<Model> model = CreateModel(frame.task);
  if (dynamic_cast<const SharedBinnerModel*>(model.get()) == nullptr) {
    return std::shared_ptr<const FeatureBinner>();
  }
  return SharedBinnerModel::BinFrame(frame.features);
}

}  // namespace eafe::ml
