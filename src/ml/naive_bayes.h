#ifndef EAFE_ML_NAIVE_BAYES_H_
#define EAFE_ML_NAIVE_BAYES_H_

#include <vector>

#include "ml/model.h"

namespace eafe::ml {

/// Gaussian naive Bayes classifier: per-class, per-feature Gaussians with
/// a variance floor for numerical stability. Table V's "NB" downstream
/// task.
class GaussianNaiveBayes : public Model {
 public:
  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override {
    return data::TaskType::kClassification;
  }

  /// P(label == 1) per row: class 1's posterior.
  Result<std::vector<double>> PredictProba(const data::DataFrame& x) const;

  bool fitted() const { return !class_priors_.empty(); }
  size_t num_classes() const { return class_priors_.size(); }

 private:
  /// Per-row log joint likelihood for every class.
  Result<std::vector<std::vector<double>>> LogJoint(
      const data::DataFrame& x) const;

  std::vector<double> class_priors_;            ///< log P(class).
  std::vector<std::vector<double>> means_;      ///< [class][feature].
  std::vector<std::vector<double>> variances_;  ///< [class][feature].
  size_t num_features_ = 0;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_NAIVE_BAYES_H_
