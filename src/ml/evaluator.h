#ifndef EAFE_ML_EVALUATOR_H_
#define EAFE_ML_EVALUATOR_H_

#include <cstddef>
#include <memory>
#include <string>
#include <tuple>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/cross_validation.h"
#include "ml/model.h"

namespace eafe::ml {

/// Downstream-task model families used in the paper's experiments.
/// kNaiveBayesOrGp matches Table V's merged "NB GP" column: Gaussian naive
/// Bayes for classification rows, GP regression for regression rows.
enum class ModelKind {
  kRandomForest,
  kDecisionTree,
  kGradientBoostedTrees,
  kLogisticRegression,
  kLinearSvm,
  kNaiveBayesOrGp,
  kMlp,
  kResNet,
};

std::string ModelKindToString(ModelKind kind);
Result<ModelKind> ModelKindFromString(const std::string& name);

/// Options for TaskEvaluator. The small RF (10 trees, depth 8) is the
/// default downstream task; its limited capacity is what makes engineered
/// interaction features valuable, matching the paper's observation that
/// AFE helps RF most.
struct EvaluatorOptions {
  ModelKind model = ModelKind::kRandomForest;
  size_t cv_folds = 5;
  uint64_t seed = 1;
  // Random forest / tree capacity. The tree-based downstream models (the
  // forest, the tree and the booster, which keeps its own defaults: 40
  // depth-3 rounds) all split on kMaxBins histograms, and each evaluation
  // bins the frame once for all CV folds and forest trees.
  size_t rf_trees = 10;
  size_t rf_max_depth = 8;
  // Neural / linear model budgets.
  size_t nn_epochs = 40;
  size_t linear_epochs = 80;

  /// Every field above, in declaration order. EvaluationSignature
  /// (afe/eval_service.h) folds over this list, so the evaluation memo
  /// keys on every knob; the static_assert below fails the build when a
  /// field is added here but not listed.
  auto Fields() const {
    return std::tie(model, cv_folds, seed, rf_trees, rf_max_depth, nn_epochs,
                    linear_epochs);
  }
};

namespace internal {

/// Converts to any field type; only ever named in unevaluated probes.
struct AnyField {
  template <typename T>
  operator T() const;
};

/// Field count of the aggregate T: the largest N for which
/// T{AnyField x N} is well-formed (the brace-init probe of Boost.PFR).
template <typename T, typename... Probe>
constexpr size_t AggregateFieldCount() {
  if constexpr (requires { T{Probe{}..., AnyField{}}; }) {
    return AggregateFieldCount<T, Probe..., AnyField>();
  } else {
    return sizeof...(Probe);
  }
}

}  // namespace internal

static_assert(
    internal::AggregateFieldCount<EvaluatorOptions>() ==
        std::tuple_size_v<decltype(EvaluatorOptions{}.Fields())>,
    "every EvaluatorOptions field must be listed in Fields(), or the "
    "evaluation memo would share scores across configurations that "
    "differ in it");

/// The formal evaluation task A_T(F, y): k-fold cross-validated score of a
/// downstream model on a feature set. Stateless; the searches count and
/// memoize their evaluations in afe::EvalService (Table IV's numbers).
class TaskEvaluator {
 public:
  explicit TaskEvaluator(const EvaluatorOptions& options = {});

  /// Cross-validated task score of `dataset` (higher is better).
  /// `frame_bins`, when given, come from BinFrame over the leading
  /// columns of `dataset` (see CrossValidateScore); the score is
  /// bit-identical with or without them.
  Result<double> Score(const data::Dataset& dataset,
                       const FeatureBinner* frame_bins = nullptr) const;

  /// Bins `frame` once for Score calls over tables that append columns
  /// to it (a search's epoch frame plus one candidate). Null when the
  /// downstream model is no tree learner and so bins nothing.
  Result<std::shared_ptr<const FeatureBinner>> BinFrame(
      const data::Dataset& frame) const;

  /// Builds a fresh downstream model for the task type.
  std::unique_ptr<Model> CreateModel(data::TaskType task) const;

  const EvaluatorOptions& options() const { return options_; }

 private:
  EvaluatorOptions options_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_EVALUATOR_H_
