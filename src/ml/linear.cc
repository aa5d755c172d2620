#include "ml/linear.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/optimizer.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "ml/histogram_builder.h"

namespace eafe::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// Row-major standardized matrix with a trailing bias column of ones.
Result<Matrix> DesignMatrix(const data::StandardScaler& scaler,
                            const data::DataFrame& x) {
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler.Transform(x));
  Matrix design(scaled.num_rows(), scaled.num_columns() + 1);
  for (size_t c = 0; c < scaled.num_columns(); ++c) {
    const data::Column& col = scaled.column(c);
    for (size_t r = 0; r < col.size(); ++r) design(r, c) = col[r];
  }
  for (size_t r = 0; r < design.rows(); ++r) {
    design(r, scaled.num_columns()) = 1.0;
  }
  return design;
}

}  // namespace

LogisticRegression::LogisticRegression(const Options& options)
    : options_(options) {}

Status LogisticRegression::Fit(const data::DataFrame& x,
                               const std::vector<double>& y) {
  if (x.num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument("rows and labels disagree or are empty");
  }
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  auto design = DesignMatrix(scaler_, x);
  EAFE_RETURN_NOT_OK(design.status());
  const Matrix& xm = *design;
  num_features_ = x.num_columns();
  EAFE_ASSIGN_OR_RETURN(
      const BinnedLabels labels,
      BinnedLabels::Create(data::TaskType::kClassification, y));
  num_classes_ = static_cast<size_t>(labels.num_classes);
  if (num_classes_ < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  const size_t dim = num_features_ + 1;
  const size_t n = y.size();
  // Binary problems train one head on y==1; multi-class trains one-vs-rest.
  const size_t heads = num_classes_ == 2 ? 1 : num_classes_;
  weights_.assign(heads, std::vector<double>(dim, 0.0));

  Rng rng(options_.seed);
  for (size_t head = 0; head < heads; ++head) {
    const int positive = num_classes_ == 2 ? 1 : static_cast<int>(head);
    std::vector<double>& w = weights_[head];
    Adam::Options adam_options;
    adam_options.learning_rate = options_.learning_rate;
    Adam adam(adam_options);
    std::vector<double> grad(dim);
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      std::vector<size_t> order = rng.Permutation(n);
      for (size_t start = 0; start < n; start += options_.batch_size) {
        const size_t end = std::min(n, start + options_.batch_size);
        std::fill(grad.begin(), grad.end(), 0.0);
        for (size_t k = start; k < end; ++k) {
          const size_t i = order[k];
          const double* row = xm.row(i);
          double z = 0.0;
          for (size_t d = 0; d < dim; ++d) z += w[d] * row[d];
          const double target =
              static_cast<int>(y[i]) == positive ? 1.0 : 0.0;
          const double error = Sigmoid(z) - target;
          for (size_t d = 0; d < dim; ++d) grad[d] += error * row[d];
        }
        const double scale = 1.0 / static_cast<double>(end - start);
        for (size_t d = 0; d < dim; ++d) {
          grad[d] = grad[d] * scale + options_.l2 * w[d];
        }
        adam.Step(&w, grad);
      }
    }
  }
  return Status::OK();
}

Status LogisticRegression::RestoreFitted(
    data::StandardScaler scaler, std::vector<std::vector<double>> weights,
    size_t num_classes) {
  if (!scaler.fitted() || weights.empty() || num_classes < 2) {
    return Status::InvalidArgument(
        "restore needs a fitted scaler, weights, and >= 2 classes");
  }
  const size_t dim = scaler.means().size() + 1;
  for (const auto& w : weights) {
    if (w.size() != dim) {
      return Status::InvalidArgument(
          "weight vectors must have num_features + 1 entries");
    }
  }
  const size_t expected_heads = num_classes == 2 ? 1 : num_classes;
  if (weights.size() != expected_heads) {
    return Status::InvalidArgument("head count inconsistent with classes");
  }
  num_features_ = scaler.means().size();
  num_classes_ = num_classes;
  scaler_ = std::move(scaler);
  weights_ = std::move(weights);
  return Status::OK();
}

Result<std::vector<std::vector<double>>> LogisticRegression::ScoreAll(
    const data::DataFrame& x) const {
  if (weights_.empty()) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (x.num_columns() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %zu features, got %zu", num_features_,
                  x.num_columns()));
  }
  EAFE_ASSIGN_OR_RETURN(Matrix xm, DesignMatrix(scaler_, x));
  std::vector<std::vector<double>> scores(weights_.size());
  for (size_t head = 0; head < weights_.size(); ++head) {
    scores[head].resize(xm.rows());
    for (size_t r = 0; r < xm.rows(); ++r) {
      double z = 0.0;
      const double* row = xm.row(r);
      for (size_t d = 0; d < weights_[head].size(); ++d) {
        z += weights_[head][d] * row[d];
      }
      scores[head][r] = Sigmoid(z);
    }
  }
  return scores;
}

Result<std::vector<double>> LogisticRegression::Predict(
    const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(auto scores, ScoreAll(x));
  std::vector<double> out(x.num_rows());
  if (scores.size() == 1) {
    for (size_t r = 0; r < out.size(); ++r) {
      out[r] = scores[0][r] >= 0.5 ? 1.0 : 0.0;
    }
    return out;
  }
  for (size_t r = 0; r < out.size(); ++r) {
    size_t best = 0;
    for (size_t head = 1; head < scores.size(); ++head) {
      if (scores[head][r] > scores[best][r]) best = head;
    }
    out[r] = static_cast<double>(best);
  }
  return out;
}

Result<std::vector<double>> LogisticRegression::PredictProba(
    const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(auto scores, ScoreAll(x));
  if (scores.size() == 1) return scores[0];
  // Multi-class: normalized OvR score for class 1 (rarely used).
  std::vector<double> out(x.num_rows());
  for (size_t r = 0; r < out.size(); ++r) {
    double total = 0.0;
    for (const auto& head : scores) total += head[r];
    out[r] = total > 0.0 && scores.size() > 1 ? scores[1][r] / total : 0.0;
  }
  return out;
}

LinearSvm::LinearSvm(const Options& options) : options_(options) {}

Status LinearSvm::Fit(const data::DataFrame& x, const std::vector<double>& y) {
  if (x.num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument("rows and labels disagree or are empty");
  }
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  auto design = DesignMatrix(scaler_, x);
  EAFE_RETURN_NOT_OK(design.status());
  const Matrix& xm = *design;
  num_features_ = x.num_columns();
  const size_t dim = num_features_ + 1;
  const size_t n = y.size();
  Rng rng(options_.seed);

  if (options_.task == data::TaskType::kRegression) {
    label_mean_ = 0.0;
    for (double v : y) label_mean_ += v;
    label_mean_ /= static_cast<double>(n);
    weights_.assign(1, std::vector<double>(dim, 0.0));
    std::vector<double>& w = weights_[0];
    Adam::Options adam_options;
    adam_options.learning_rate = options_.learning_rate;
    Adam adam(adam_options);
    std::vector<double> grad(dim);
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      std::vector<size_t> order = rng.Permutation(n);
      for (size_t start = 0; start < n; start += options_.batch_size) {
        const size_t end = std::min(n, start + options_.batch_size);
        std::fill(grad.begin(), grad.end(), 0.0);
        for (size_t k = start; k < end; ++k) {
          const size_t i = order[k];
          const double* row = xm.row(i);
          double pred = 0.0;
          for (size_t d = 0; d < dim; ++d) pred += w[d] * row[d];
          const double residual = pred - (y[i] - label_mean_);
          // Epsilon-insensitive subgradient.
          double sign = 0.0;
          if (residual > options_.epsilon) {
            sign = 1.0;
          } else if (residual < -options_.epsilon) {
            sign = -1.0;
          }
          for (size_t d = 0; d < dim; ++d) grad[d] += sign * row[d];
        }
        const double scale = 1.0 / static_cast<double>(end - start);
        for (size_t d = 0; d < dim; ++d) {
          grad[d] = grad[d] * scale + options_.l2 * w[d];
        }
        adam.Step(&w, grad);
      }
    }
    return Status::OK();
  }

  EAFE_ASSIGN_OR_RETURN(
      const BinnedLabels labels,
      BinnedLabels::Create(data::TaskType::kClassification, y));
  num_classes_ = static_cast<size_t>(labels.num_classes);
  if (num_classes_ < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  const size_t heads = num_classes_ == 2 ? 1 : num_classes_;
  weights_.assign(heads, std::vector<double>(dim, 0.0));
  for (size_t head = 0; head < heads; ++head) {
    const int positive = num_classes_ == 2 ? 1 : static_cast<int>(head);
    std::vector<double>& w = weights_[head];
    Adam::Options adam_options;
    adam_options.learning_rate = options_.learning_rate;
    Adam adam(adam_options);
    std::vector<double> grad(dim);
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      std::vector<size_t> order = rng.Permutation(n);
      for (size_t start = 0; start < n; start += options_.batch_size) {
        const size_t end = std::min(n, start + options_.batch_size);
        std::fill(grad.begin(), grad.end(), 0.0);
        for (size_t k = start; k < end; ++k) {
          const size_t i = order[k];
          const double* row = xm.row(i);
          const double target =
              static_cast<int>(y[i]) == positive ? 1.0 : -1.0;
          double margin = 0.0;
          for (size_t d = 0; d < dim; ++d) margin += w[d] * row[d];
          if (target * margin < 1.0) {
            for (size_t d = 0; d < dim; ++d) grad[d] -= target * row[d];
          }
        }
        const double scale = 1.0 / static_cast<double>(end - start);
        for (size_t d = 0; d < dim; ++d) {
          grad[d] = grad[d] * scale + options_.l2 * w[d];
        }
        adam.Step(&w, grad);
      }
    }
  }
  return Status::OK();
}

Result<std::vector<double>> LinearSvm::Predict(
    const data::DataFrame& x) const {
  if (weights_.empty()) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (x.num_columns() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %zu features, got %zu", num_features_,
                  x.num_columns()));
  }
  EAFE_ASSIGN_OR_RETURN(Matrix xm, DesignMatrix(scaler_, x));
  std::vector<double> out(xm.rows());
  if (options_.task == data::TaskType::kRegression) {
    for (size_t r = 0; r < xm.rows(); ++r) {
      double pred = 0.0;
      const double* row = xm.row(r);
      for (size_t d = 0; d < weights_[0].size(); ++d) {
        pred += weights_[0][d] * row[d];
      }
      out[r] = pred + label_mean_;
    }
    return out;
  }
  if (weights_.size() == 1) {
    for (size_t r = 0; r < xm.rows(); ++r) {
      double margin = 0.0;
      const double* row = xm.row(r);
      for (size_t d = 0; d < weights_[0].size(); ++d) {
        margin += weights_[0][d] * row[d];
      }
      out[r] = margin >= 0.0 ? 1.0 : 0.0;
    }
    return out;
  }
  for (size_t r = 0; r < xm.rows(); ++r) {
    double best_margin = 0.0;
    size_t best = 0;
    const double* row = xm.row(r);
    for (size_t head = 0; head < weights_.size(); ++head) {
      double margin = 0.0;
      for (size_t d = 0; d < weights_[head].size(); ++d) {
        margin += weights_[head][d] * row[d];
      }
      if (head == 0 || margin > best_margin) {
        best_margin = margin;
        best = head;
      }
    }
    out[r] = static_cast<double>(best);
  }
  return out;
}

}  // namespace eafe::ml
