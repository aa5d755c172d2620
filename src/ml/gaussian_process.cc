#include "ml/gaussian_process.h"

#include <cmath>

#include "core/rng.h"

namespace eafe::ml {
namespace {

constexpr double kLengthScale = 1.0;
constexpr double kSignalVariance = 1.0;
constexpr double kNoiseVariance = 1e-2;
/// Seeds the row subsample of a fit larger than max_training_rows.
constexpr uint64_t kSubsampleSeed = 97;

/// The RBF kernel of two standardized rows.
double Kernel(const double* a, const double* b, size_t dim) {
  double sq = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    sq += diff * diff;
  }
  return kSignalVariance *
         std::exp(-0.5 * sq / (kLengthScale * kLengthScale));
}

}  // namespace

GaussianProcessRegressor::GaussianProcessRegressor(const Options& options)
    : options_(options) {}

Status GaussianProcessRegressor::Fit(const data::DataFrame& x,
                                     const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  data::DataFrame features = x;
  std::vector<double> labels = y;
  if (features.num_rows() > options_.max_training_rows) {
    Rng rng(kSubsampleSeed);
    const std::vector<size_t> keep = rng.SampleWithoutReplacement(
        features.num_rows(), options_.max_training_rows);
    features = features.SelectRows(keep);
    std::vector<double> subset(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) subset[i] = y[keep[i]];
    labels = std::move(subset);
  }
  EAFE_RETURN_NOT_OK(scaler_.Fit(features));
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(features));
  train_x_ = scaled.ToMatrix();
  num_features_ = features.num_columns();

  const std::vector<double>& y_fit = labels;
  const size_t n = y_fit.size();
  label_mean_ = 0.0;
  for (double v : y_fit) label_mean_ += v;
  label_mean_ /= static_cast<double>(n);

  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double value =
          Kernel(train_x_.row(i), train_x_.row(j), num_features_);
      k(i, j) = value;
      k(j, i) = value;
    }
    k(i, i) += kNoiseVariance;
  }
  auto chol = Cholesky(k);
  if (!chol.ok()) {
    // Retry with a stronger jitter before giving up: engineered features
    // can be collinear enough to defeat the default noise level.
    for (size_t i = 0; i < n; ++i) k(i, i) += 1e-6 * static_cast<double>(n);
    chol = Cholesky(k);
    EAFE_RETURN_NOT_OK(chol.status());
  }
  std::vector<double> centered(n);
  for (size_t i = 0; i < n; ++i) centered[i] = y_fit[i] - label_mean_;
  alpha_ = CholeskySolve(*chol, centered);
  return Status::OK();
}

Result<std::vector<double>> GaussianProcessRegressor::Predict(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(x));
  const Matrix test_x = scaled.ToMatrix();
  std::vector<double> out(test_x.rows());
  for (size_t i = 0; i < test_x.rows(); ++i) {
    double pred = 0.0;
    for (size_t j = 0; j < alpha_.size(); ++j) {
      pred += alpha_[j] *
              Kernel(test_x.row(i), train_x_.row(j), num_features_);
    }
    out[i] = pred + label_mean_;
  }
  return out;
}

}  // namespace eafe::ml
