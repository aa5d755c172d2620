#ifndef EAFE_ML_MLP_H_
#define EAFE_ML_MLP_H_

#include <vector>

#include "core/matrix.h"
#include "data/scaler.h"
#include "ml/model.h"

namespace eafe::ml {

/// Fully-connected multi-layer perceptron with ReLU hidden layers, trained
/// by mini-batch Adam. Classification uses a softmax head with
/// cross-entropy; regression uses a linear head with MSE. Inputs are
/// standardized internally. Table V's "MLP" downstream task.
class Mlp : public Model {
 public:
  struct Options {
    data::TaskType task = data::TaskType::kClassification;
    std::vector<size_t> hidden_sizes = {32, 16};
    size_t epochs = 60;
    double learning_rate = 0.005;
    double l2 = 1e-4;
    uint64_t seed = 1;
  };

  Mlp() : Mlp(Options()) {}
  explicit Mlp(const Options& options);

  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override { return options_.task; }

  /// P(class == 1) for binary classification (softmax output of unit 1).
  Result<std::vector<double>> PredictProba(const data::DataFrame& x) const;

  bool fitted() const { return !weights_.empty(); }

  // Fitted state (the golden digests fold it).
  const data::StandardScaler& scaler() const { return scaler_; }
  const std::vector<Matrix>& layer_weights() const { return weights_; }
  const std::vector<std::vector<double>>& layer_biases() const {
    return biases_;
  }
  double label_mean() const { return label_mean_; }
  double label_scale() const { return label_scale_; }

 private:
  /// Forward pass over standardized inputs; returns per-layer activations
  /// (activations[0] is the input batch, back() the raw output/logits).
  std::vector<Matrix> Forward(const Matrix& batch) const;

  /// Raw network outputs (logits or regression values) for a frame.
  Result<Matrix> Outputs(const data::DataFrame& x) const;

  Options options_;
  data::StandardScaler scaler_;
  std::vector<Matrix> weights_;  ///< [layer]: in x out.
  std::vector<std::vector<double>> biases_;
  size_t num_features_ = 0;
  double label_mean_ = 0.0;  ///< Target centering for regression.
  double label_scale_ = 1.0;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_MLP_H_
