#ifndef EAFE_ML_LINEAR_H_
#define EAFE_ML_LINEAR_H_

#include <span>
#include <vector>

#include "core/matrix.h"
#include "data/scaler.h"
#include "ml/model.h"

namespace eafe::ml {

/// L2-regularized logistic regression trained with mini-batch Adam.
/// Binary problems use a single weight vector; multi-class problems use
/// one-vs-rest. Inputs are standardized internally (fit on training data)
/// so callers can pass raw engineered features. Used both as a baseline
/// downstream model and as the default FPE classifier.
class LogisticRegression : public Model {
 public:
  struct Options {
    size_t epochs = 100;
    double learning_rate = 0.01;
    double l2 = 1e-4;
    uint64_t seed = 1;
  };

  LogisticRegression() : LogisticRegression(Options()) {}
  explicit LogisticRegression(const Options& options);

  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override {
    return data::TaskType::kClassification;
  }

  /// P(label == 1) per row. Binary problems return the one head's
  /// sigmoid; multi-class ones normalize class 1's head over all heads.
  Result<std::vector<double>> PredictProba(const data::DataFrame& x) const;

  /// PredictProba of one row given as its feature values, in column
  /// order: the same bits as a one-row frame, without building one.
  Result<double> PredictRowProba(std::span<const double> row) const;

  bool fitted() const { return !weights_.empty(); }
  /// Weight vector of the one-vs-rest classifier for class `cls`.
  const std::vector<double>& weights(size_t cls) const {
    return weights_[cls];
  }

  // Fitted-state access for persistence (src/serve/).
  const data::StandardScaler& scaler() const { return scaler_; }
  const std::vector<std::vector<double>>& all_weights() const {
    return weights_;
  }
  size_t num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }

  /// Restores a previously fitted state. Each weight vector must have
  /// num_features + 1 entries (trailing bias); the scaler must be fitted
  /// on num_features columns.
  Status RestoreFitted(data::StandardScaler scaler,
                       std::vector<std::vector<double>> weights,
                       size_t num_classes);

 private:
  /// Per-class decision scores (sigmoid of the linear score), [class][row].
  Result<std::vector<std::vector<double>>> ScoreAll(
      const data::DataFrame& x) const;
  /// ScoreAll over a design matrix: standardized rows, then the bias 1.
  std::vector<std::vector<double>> ScoreDesign(const Matrix& xm) const;

  Options options_;
  data::StandardScaler scaler_;
  std::vector<std::vector<double>> weights_;  ///< [class][feature+1(bias)].
  size_t num_classes_ = 0;
  size_t num_features_ = 0;
};

/// Linear support-vector machine trained with subgradient descent.
/// Classification uses hinge loss (one-vs-rest for multi-class);
/// regression uses the epsilon-insensitive loss (linear SVR, tube
/// half-width 0.1). This is the "SVM" downstream task of Table V.
class LinearSvm : public Model {
 public:
  struct Options {
    data::TaskType task = data::TaskType::kClassification;
    size_t epochs = 100;
    double learning_rate = 0.01;
    double l2 = 1e-3;
    uint64_t seed = 1;
  };

  LinearSvm() : LinearSvm(Options()) {}
  explicit LinearSvm(const Options& options);

  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override { return options_.task; }

  bool fitted() const { return !weights_.empty(); }
  /// Weight vectors with a trailing bias: one per one-vs-rest head, or
  /// one for binary classification and regression.
  const std::vector<std::vector<double>>& all_weights() const {
    return weights_;
  }

 private:
  Options options_;
  data::StandardScaler scaler_;
  std::vector<std::vector<double>> weights_;  ///< [class or 0][feature+1].
  size_t num_classes_ = 0;
  size_t num_features_ = 0;
  double label_mean_ = 0.0;  ///< Centering for regression targets.
};

}  // namespace eafe::ml

#endif  // EAFE_ML_LINEAR_H_
