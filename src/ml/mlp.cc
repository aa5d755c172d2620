#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/rng.h"
#include "ml/network.h"

namespace eafe::ml {

Mlp::Mlp(const Options& options) : options_(options) {}

std::vector<Matrix> Mlp::Forward(const Matrix& batch) const {
  std::vector<Matrix> activations;
  activations.push_back(batch);
  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    Matrix z = activations.back().Multiply(weights_[layer]);
    AddBiasRows(&z, biases_[layer]);
    if (layer + 1 < weights_.size()) ReluInPlace(&z);
    activations.push_back(std::move(z));
  }
  return activations;
}

Status Mlp::Fit(const data::DataFrame& x, const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  EAFE_ASSIGN_OR_RETURN(const Matrix xm, ScaledMatrix(scaler_, x));
  num_features_ = x.num_columns();
  EAFE_ASSIGN_OR_RETURN(const NetworkTargets targets,
                        PrepareTargets(options_.task, y));
  label_mean_ = targets.label_mean;
  label_scale_ = targets.label_scale;

  // He initialization.
  Rng rng(options_.seed);
  std::vector<size_t> dims;
  dims.push_back(num_features_);
  for (size_t h : options_.hidden_sizes) dims.push_back(h);
  dims.push_back(targets.output_dim);
  weights_.clear();
  biases_.clear();
  for (size_t layer = 0; layer + 1 < dims.size(); ++layer) {
    const double stddev =
        std::sqrt(2.0 / static_cast<double>(dims[layer]));
    weights_.push_back(
        Matrix::RandomNormal(dims[layer], dims[layer + 1], stddev, &rng));
    biases_.emplace_back(dims[layer + 1], 0.0);
  }
  std::vector<DenseAdam> optimizers(weights_.size(),
                                    DenseAdam(options_.learning_rate));

  const size_t n = y.size();
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> order = rng.Permutation(n);
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      std::vector<Matrix> activations =
          Forward(GatherBatch(xm, order, start, end));
      Matrix delta = OutputDelta(options_.task, std::move(activations.back()),
                                 targets.values, order, start);
      for (size_t layer = weights_.size(); layer-- > 0;) {
        Matrix next_delta;
        if (layer > 0) {
          next_delta = delta.Multiply(weights_[layer].Transpose());
          GateRelu(activations[layer], &next_delta);
        }
        optimizers[layer].Step(activations[layer], delta, options_.l2,
                               &weights_[layer], &biases_[layer]);
        delta = std::move(next_delta);
      }
    }
  }
  return Status::OK();
}

Result<Matrix> Mlp::Outputs(const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  EAFE_ASSIGN_OR_RETURN(const Matrix xm, ScaledMatrix(scaler_, x));
  return std::move(Forward(xm).back());
}

Result<std::vector<double>> Mlp::Predict(const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(const Matrix outputs, Outputs(x));
  return DecodeOutputs(options_.task, outputs, label_mean_, label_scale_);
}

Result<std::vector<double>> Mlp::PredictProba(const data::DataFrame& x) const {
  if (options_.task != data::TaskType::kClassification) {
    return Status::FailedPrecondition(
        "PredictProba requires a classification MLP");
  }
  EAFE_ASSIGN_OR_RETURN(Matrix outputs, Outputs(x));
  // The softmax of unit 1 (of unit 0 for a one-unit head).
  SoftmaxRows(&outputs);
  std::vector<double> out(outputs.rows());
  for (size_t r = 0; r < outputs.rows(); ++r) {
    out[r] = outputs.cols() > 1 ? outputs(r, 1) : outputs(r, 0);
  }
  return out;
}

}  // namespace eafe::ml
