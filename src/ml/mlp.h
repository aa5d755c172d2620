#ifndef EAFE_ML_MLP_H_
#define EAFE_ML_MLP_H_

#include <span>
#include <vector>

#include "core/matrix.h"
#include "data/scaler.h"
#include "ml/model.h"

namespace eafe::ml {

/// Fully-connected multi-layer perceptron with ReLU hidden layers, trained
/// by mini-batch Adam. Classification uses a softmax head with
/// cross-entropy; regression uses a linear head with MSE. Inputs are
/// standardized internally. Table V's "MLP" downstream task, and an
/// alternative FPE classifier.
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

  /// PredictProba of one row given as its feature values, in column
  /// order: the same bits as a one-row frame, without building one.
  Result<double> PredictRowProba(std::span<const double> row) const;

  bool fitted() const { return !weights_.empty(); }

  // Fitted-state access for persistence (src/serve/).
  const Options& options() const { return options_; }
  const data::StandardScaler& scaler() const { return scaler_; }
  const std::vector<Matrix>& layer_weights() const { return weights_; }
  const std::vector<std::vector<double>>& layer_biases() const {
    return biases_;
  }
  size_t num_features() const { return num_features_; }
  size_t output_dim() const { return output_dim_; }
  double label_mean() const { return label_mean_; }
  double label_scale() const { return label_scale_; }

  /// Restores a previously fitted state. Layer shapes must chain (each
  /// layer's output width equals the next layer's input width, biases
  /// match their layer's output width) and the scaler must be fitted on
  /// the input layer's width. `label_mean`/`label_scale` are the target
  /// standardization of a regression fit; pass 0/1 for classification.
  Status RestoreFitted(data::StandardScaler scaler,
                       std::vector<Matrix> weights,
                       std::vector<std::vector<double>> biases,
                       double label_mean, double label_scale);

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
  size_t output_dim_ = 0;
  double label_mean_ = 0.0;  ///< Target centering for regression.
  double label_scale_ = 1.0;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_MLP_H_
