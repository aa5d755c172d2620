#include "ml/mlp.h"

#include <algorithm>
#include <set>
#include <cmath>

#include "core/check.h"
#include "core/optimizer.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "ml/histogram_builder.h"

namespace eafe::ml {
namespace {

/// Row-wise softmax in place.
void SoftmaxRows(Matrix* m) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->row(r);
    double max_logit = row[0];
    for (size_t c = 1; c < m->cols(); ++c) {
      max_logit = std::max(max_logit, row[c]);
    }
    double total = 0.0;
    for (size_t c = 0; c < m->cols(); ++c) {
      row[c] = std::exp(row[c] - max_logit);
      total += row[c];
    }
    for (size_t c = 0; c < m->cols(); ++c) row[c] /= total;
  }
}

Matrix FrameToMatrix(const data::DataFrame& frame) { return frame.ToMatrix(); }

}  // namespace

Mlp::Mlp(const Options& options) : options_(options) {}

std::vector<Matrix> Mlp::Forward(const Matrix& batch) const {
  std::vector<Matrix> activations;
  activations.push_back(batch);
  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    Matrix z = activations.back().Multiply(weights_[layer]);
    for (size_t r = 0; r < z.rows(); ++r) {
      double* row = z.row(r);
      for (size_t c = 0; c < z.cols(); ++c) row[c] += biases_[layer][c];
    }
    const bool is_output = layer + 1 == weights_.size();
    if (!is_output) {
      for (double& v : z.data()) v = std::max(v, 0.0);  // ReLU.
    }
    activations.push_back(std::move(z));
  }
  return activations;
}

Status Mlp::Fit(const data::DataFrame& x, const std::vector<double>& y) {
  if (x.num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument("rows and labels disagree or are empty");
  }
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(x));
  const Matrix xm = FrameToMatrix(scaled);
  num_features_ = x.num_columns();
  const size_t n = y.size();

  std::vector<double> targets = y;
  if (options_.task == data::TaskType::kClassification) {
    EAFE_ASSIGN_OR_RETURN(const BinnedLabels labels,
                          BinnedLabels::Create(options_.task, y));
    output_dim_ = static_cast<size_t>(labels.num_classes);
    const std::set<int> distinct(labels.classes.begin(),
                                 labels.classes.end());
    if (distinct.size() < 2) {
      return Status::InvalidArgument("need at least 2 classes");
    }
  } else {
    output_dim_ = 1;
    // Standardize targets so the fixed learning rate behaves across scales.
    label_mean_ = 0.0;
    for (double v : y) label_mean_ += v;
    label_mean_ /= static_cast<double>(n);
    double var = 0.0;
    for (double v : y) var += (v - label_mean_) * (v - label_mean_);
    var /= static_cast<double>(n);
    label_scale_ = var > 0.0 ? std::sqrt(var) : 1.0;
    for (double& v : targets) v = (v - label_mean_) / label_scale_;
  }

  // He initialization.
  Rng rng(options_.seed);
  std::vector<size_t> dims;
  dims.push_back(num_features_);
  for (size_t h : options_.hidden_sizes) dims.push_back(h);
  dims.push_back(output_dim_);
  weights_.clear();
  biases_.clear();
  for (size_t layer = 0; layer + 1 < dims.size(); ++layer) {
    const double stddev =
        std::sqrt(2.0 / static_cast<double>(dims[layer]));
    weights_.push_back(
        Matrix::RandomNormal(dims[layer], dims[layer + 1], stddev, &rng));
    biases_.emplace_back(dims[layer + 1], 0.0);
  }

  // One Adam state per parameter tensor.
  std::vector<Adam> weight_opts(weights_.size());
  std::vector<Adam> bias_opts(weights_.size());
  for (size_t layer = 0; layer < weights_.size(); ++layer) {
    Adam::Options adam_options;
    adam_options.learning_rate = options_.learning_rate;
    weight_opts[layer] = Adam(adam_options);
    bias_opts[layer] = Adam(adam_options);
  }

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::vector<size_t> order = rng.Permutation(n);
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t end = std::min(n, start + options_.batch_size);
      const size_t batch_n = end - start;
      Matrix batch(batch_n, num_features_);
      for (size_t k = 0; k < batch_n; ++k) {
        const double* src = xm.row(order[start + k]);
        double* dst = batch.row(k);
        for (size_t c = 0; c < num_features_; ++c) dst[c] = src[c];
      }
      std::vector<Matrix> activations = Forward(batch);

      // Output delta.
      Matrix delta = activations.back();
      if (options_.task == data::TaskType::kClassification) {
        SoftmaxRows(&delta);
        for (size_t k = 0; k < batch_n; ++k) {
          const size_t cls =
              static_cast<size_t>(targets[order[start + k]]);
          delta(k, cls) -= 1.0;
        }
      } else {
        for (size_t k = 0; k < batch_n; ++k) {
          delta(k, 0) -= targets[order[start + k]];
        }
      }
      const double inv_batch = 1.0 / static_cast<double>(batch_n);
      for (double& v : delta.data()) v *= inv_batch;

      // Backprop.
      for (size_t layer = weights_.size(); layer-- > 0;) {
        const Matrix& input = activations[layer];
        Matrix grad_w = input.Transpose().Multiply(delta);
        grad_w.AddInPlace(weights_[layer], options_.l2);
        std::vector<double> grad_b(biases_[layer].size(), 0.0);
        for (size_t r = 0; r < delta.rows(); ++r) {
          const double* row = delta.row(r);
          for (size_t c = 0; c < grad_b.size(); ++c) grad_b[c] += row[c];
        }
        Matrix next_delta;
        if (layer > 0) {
          next_delta = delta.Multiply(weights_[layer].Transpose());
          // ReLU derivative gates on the pre-activation sign, which equals
          // the activation sign since ReLU(z) > 0 iff z > 0.
          const Matrix& act = activations[layer];
          for (size_t i = 0; i < next_delta.size(); ++i) {
            if (act.data()[i] <= 0.0) next_delta.data()[i] = 0.0;
          }
        }
        weight_opts[layer].Step(&weights_[layer].data(), grad_w.data());
        bias_opts[layer].Step(&biases_[layer], grad_b);
        if (layer > 0) delta = std::move(next_delta);
      }
    }
  }
  return Status::OK();
}

Status Mlp::RestoreFitted(data::StandardScaler scaler,
                          std::vector<Matrix> weights,
                          std::vector<std::vector<double>> biases,
                          double label_mean, double label_scale) {
  if (weights.empty() || weights.size() != biases.size()) {
    return Status::InvalidArgument(
        "restored MLP needs matching, nonempty weight and bias layers");
  }
  for (size_t layer = 0; layer < weights.size(); ++layer) {
    if (weights[layer].rows() == 0 || weights[layer].cols() == 0) {
      return Status::InvalidArgument("restored MLP layer is empty");
    }
    if (biases[layer].size() != weights[layer].cols()) {
      return Status::InvalidArgument(
          "restored MLP bias width disagrees with its layer");
    }
    if (layer + 1 < weights.size() &&
        weights[layer].cols() != weights[layer + 1].rows()) {
      return Status::InvalidArgument(
          "restored MLP layer shapes do not chain");
    }
  }
  if (!scaler.fitted() ||
      scaler.means().size() != weights.front().rows()) {
    return Status::InvalidArgument(
        "restored MLP scaler disagrees with the input layer width");
  }
  if (!(label_scale > 0.0)) {
    return Status::InvalidArgument("label_scale must be positive");
  }
  if (options_.task == data::TaskType::kClassification &&
      weights.back().cols() < 2) {
    return Status::InvalidArgument(
        "restored classification MLP needs at least 2 output units");
  }
  num_features_ = weights.front().rows();
  output_dim_ = weights.back().cols();
  scaler_ = std::move(scaler);
  weights_ = std::move(weights);
  biases_ = std::move(biases);
  label_mean_ = label_mean;
  label_scale_ = label_scale;
  return Status::OK();
}

Result<Matrix> Mlp::Outputs(const data::DataFrame& x) const {
  if (weights_.empty()) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (x.num_columns() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %zu features, got %zu", num_features_,
                  x.num_columns()));
  }
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(x));
  std::vector<Matrix> activations = Forward(FrameToMatrix(scaled));
  return activations.back();
}

Result<std::vector<double>> Mlp::Predict(const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(Matrix outputs, Outputs(x));
  std::vector<double> out(outputs.rows());
  if (options_.task == data::TaskType::kRegression) {
    for (size_t r = 0; r < outputs.rows(); ++r) {
      out[r] = outputs(r, 0) * label_scale_ + label_mean_;
    }
    return out;
  }
  for (size_t r = 0; r < outputs.rows(); ++r) {
    size_t best = 0;
    for (size_t c = 1; c < outputs.cols(); ++c) {
      if (outputs(r, c) > outputs(r, best)) best = c;
    }
    out[r] = static_cast<double>(best);
  }
  return out;
}

Result<std::vector<double>> Mlp::PredictProba(const data::DataFrame& x) const {
  if (options_.task != data::TaskType::kClassification) {
    return Status::FailedPrecondition(
        "PredictProba requires a classification MLP");
  }
  EAFE_ASSIGN_OR_RETURN(Matrix outputs, Outputs(x));
  SoftmaxRows(&outputs);
  std::vector<double> out(outputs.rows());
  for (size_t r = 0; r < outputs.rows(); ++r) {
    out[r] = outputs.cols() > 1 ? outputs(r, 1) : outputs(r, 0);
  }
  return out;
}

}  // namespace eafe::ml
