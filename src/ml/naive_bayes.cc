#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "core/string_util.h"
#include "ml/histogram_builder.h"

namespace eafe::ml {
namespace {

/// Added to every per-feature variance, relative to the largest feature
/// variance, mirroring sklearn's variance smoothing.
constexpr double kVarSmoothing = 1e-9;

}  // namespace

Status GaussianNaiveBayes::Fit(const data::DataFrame& x,
                               const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  num_features_ = x.num_columns();
  EAFE_ASSIGN_OR_RETURN(
      const BinnedLabels labels,
      BinnedLabels::Create(data::TaskType::kClassification, y));
  const size_t num_classes = static_cast<size_t>(labels.num_classes);
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }

  // Variance floor scaled by the largest overall feature variance.
  double max_var = 0.0;
  for (const data::Column& c : x.columns()) {
    const double sd = c.StdDev();
    max_var = std::max(max_var, sd * sd);
  }
  const double floor = std::max(kVarSmoothing * max_var, 1e-12);

  std::vector<size_t> counts(num_classes, 0);
  means_.assign(num_classes, std::vector<double>(num_features_, 0.0));
  variances_.assign(num_classes, std::vector<double>(num_features_, 0.0));
  for (size_t i = 0; i < y.size(); ++i) {
    ++counts[static_cast<size_t>(y[i])];
  }
  for (size_t cls = 0; cls < num_classes; ++cls) {
    if (counts[cls] == 0) {
      return Status::InvalidArgument(
          StrFormat("class %zu has no training samples", cls));
    }
  }
  for (size_t f = 0; f < num_features_; ++f) {
    const data::Column& col = x.column(f);
    for (size_t i = 0; i < y.size(); ++i) {
      means_[static_cast<size_t>(y[i])][f] += col[i];
    }
    for (size_t cls = 0; cls < num_classes; ++cls) {
      means_[cls][f] /= static_cast<double>(counts[cls]);
    }
    for (size_t i = 0; i < y.size(); ++i) {
      const size_t cls = static_cast<size_t>(y[i]);
      const double d = col[i] - means_[cls][f];
      variances_[cls][f] += d * d;
    }
    for (size_t cls = 0; cls < num_classes; ++cls) {
      variances_[cls][f] =
          variances_[cls][f] / static_cast<double>(counts[cls]) + floor;
    }
  }
  class_priors_.resize(num_classes);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    class_priors_[cls] = std::log(static_cast<double>(counts[cls]) /
                                  static_cast<double>(y.size()));
  }
  return Status::OK();
}

Result<std::vector<std::vector<double>>> GaussianNaiveBayes::LogJoint(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  const size_t n = x.num_rows();
  const size_t num_classes = class_priors_.size();
  std::vector<std::vector<double>> log_joint(
      n, std::vector<double>(num_classes, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t cls = 0; cls < num_classes; ++cls) {
      log_joint[i][cls] = class_priors_[cls];
    }
  }
  for (size_t f = 0; f < num_features_; ++f) {
    const data::Column& col = x.column(f);
    for (size_t cls = 0; cls < num_classes; ++cls) {
      const double mean = means_[cls][f];
      const double var = variances_[cls][f];
      const double log_norm = -0.5 * std::log(2.0 * M_PI * var);
      for (size_t i = 0; i < n; ++i) {
        const double d = col[i] - mean;
        log_joint[i][cls] += log_norm - 0.5 * d * d / var;
      }
    }
  }
  return log_joint;
}

Result<std::vector<double>> GaussianNaiveBayes::Predict(
    const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(auto log_joint, LogJoint(x));
  std::vector<double> out(x.num_rows());
  for (size_t i = 0; i < out.size(); ++i) {
    size_t best = 0;
    for (size_t cls = 1; cls < log_joint[i].size(); ++cls) {
      if (log_joint[i][cls] > log_joint[i][best]) best = cls;
    }
    out[i] = static_cast<double>(best);
  }
  return out;
}

Result<std::vector<double>> GaussianNaiveBayes::PredictProba(
    const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(auto log_joint, LogJoint(x));
  std::vector<double> out(x.num_rows(), 0.0);
  for (size_t i = 0; i < out.size(); ++i) {
    // Softmax over log joints; report class 1's posterior.
    double max_log = log_joint[i][0];
    for (double v : log_joint[i]) max_log = std::max(max_log, v);
    double total = 0.0;
    for (double& v : log_joint[i]) {
      v = std::exp(v - max_log);
      total += v;
    }
    if (log_joint[i].size() > 1 && total > 0.0) {
      out[i] = log_joint[i][1] / total;
    }
  }
  return out;
}

}  // namespace eafe::ml
