#include "ml/linear.h"

#include <algorithm>
#include <optional>

#include "core/activation.h"
#include "core/optimizer.h"
#include "core/rng.h"
#include "ml/histogram_builder.h"

namespace eafe::ml {
namespace {

/// SVR tube half-width: residuals inside it add no gradient.
constexpr double kSvrEpsilon = 0.1;

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

/// DesignMatrix of a one-row frame holding `row`, without the frame.
Matrix DesignRow(const data::StandardScaler& scaler,
                 std::span<const double> row) {
  Matrix design(1, row.size() + 1);
  for (size_t c = 0; c < row.size(); ++c) {
    design(0, c) = scaler.Scale(c, row[c]);
  }
  design(0, row.size()) = 1.0;
  return design;
}

/// The linear score w . row, summed from 0 in feature order.
double Score(const std::vector<double>& w, const double* row) {
  double z = 0.0;
  for (size_t d = 0; d < w.size(); ++d) z += w[d] * row[d];
  return z;
}

/// P(label == 1) of one row from its `heads` one-vs-rest sigmoid scores,
/// head h's being score(h): the one head's score for a binary problem,
/// class 1's share of all heads' otherwise.
template <typename HeadScore>
double ClassOneProbability(size_t heads, const HeadScore& score) {
  if (heads == 1) return score(0);
  double total = 0.0;
  for (size_t head = 0; head < heads; ++head) total += score(head);
  return total > 0.0 ? score(1) / total : 0.0;
}

/// Trains one head `weights` (zeros on entry) on the design matrix `xm`
/// by mini-batch Adam: one shuffle of the rows per epoch, then per batch
/// the mean over its rows of coefficient x row, plus options.l2 x w.
/// `rule(i, z)` gives row i's coefficient at score z, or nullopt for a
/// row that adds nothing (adding 0 x row is not a no-op when the row holds
/// an inf or a NaN). A template, not a std::function: the logistic FPE
/// classifier fits inside every E-AFE setup, and the rule runs per row.
template <typename Options, typename Rule>
void TrainHead(const Options& options, const Matrix& xm, Rng* rng,
               const Rule& rule, std::vector<double>* weights) {
  std::vector<double>& w = *weights;
  const size_t n = xm.rows();
  const size_t dim = w.size();
  Adam adam(options.learning_rate);
  std::vector<double> grad(dim);
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(n);
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      std::fill(grad.begin(), grad.end(), 0.0);
      for (size_t k = start; k < end; ++k) {
        const double* row = xm.row(order[k]);
        const std::optional<double> coefficient = rule(order[k], Score(w, row));
        if (!coefficient.has_value()) continue;
        for (size_t d = 0; d < dim; ++d) grad[d] += *coefficient * row[d];
      }
      const double scale = 1.0 / static_cast<double>(end - start);
      for (size_t d = 0; d < dim; ++d) {
        grad[d] = grad[d] * scale + options.l2 * w[d];
      }
      adam.Step(&w, grad);
    }
  }
}

/// Trains the one-vs-rest heads of a linear classifier on class labels
/// `y`, head after head from one `rng`: a binary problem trains one head
/// on class 1, a multi-class one trains one head per class.
/// `rule(positive, z)` is TrainHead's rule for a row whose label is
/// (`positive`) or is not the head's class.
template <typename Options, typename Rule>
Status FitOneVsRest(const Options& options, const Matrix& xm,
                    const std::vector<double>& y, Rng* rng, const Rule& rule,
                    size_t* num_classes,
                    std::vector<std::vector<double>>* weights) {
  EAFE_ASSIGN_OR_RETURN(
      const BinnedLabels labels,
      BinnedLabels::Create(data::TaskType::kClassification, y));
  if (labels.num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  *num_classes = static_cast<size_t>(labels.num_classes);
  const size_t heads = *num_classes == 2 ? 1 : *num_classes;
  weights->assign(heads, std::vector<double>(xm.cols(), 0.0));
  for (size_t head = 0; head < heads; ++head) {
    const int positive = *num_classes == 2 ? 1 : static_cast<int>(head);
    TrainHead(
        options, xm, rng,
        [&](size_t i, double z) {
          return rule(labels.classes[i] == positive, z);
        },
        &(*weights)[head]);
  }
  return Status::OK();
}

}  // namespace

LogisticRegression::LogisticRegression(const Options& options)
    : options_(options) {}

Status LogisticRegression::Fit(const data::DataFrame& x,
                               const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  EAFE_ASSIGN_OR_RETURN(const Matrix xm, DesignMatrix(scaler_, x));
  num_features_ = x.num_columns();
  Rng rng(options_.seed);
  // Log-loss gradient: the predicted probability minus the 0/1 target.
  return FitOneVsRest(
      options_, xm, y, &rng,
      [](bool positive, double z) -> std::optional<double> {
        return Sigmoid(z) - (positive ? 1.0 : 0.0);
      },
      &num_classes_, &weights_);
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
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  EAFE_ASSIGN_OR_RETURN(Matrix xm, DesignMatrix(scaler_, x));
  return ScoreDesign(xm);
}

std::vector<std::vector<double>> LogisticRegression::ScoreDesign(
    const Matrix& xm) const {
  std::vector<std::vector<double>> scores(weights_.size());
  for (size_t head = 0; head < weights_.size(); ++head) {
    scores[head].resize(xm.rows());
    for (size_t r = 0; r < xm.rows(); ++r) {
      scores[head][r] = Sigmoid(Score(weights_[head], xm.row(r)));
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
  std::vector<double> out(x.num_rows());
  for (size_t r = 0; r < out.size(); ++r) {
    out[r] = ClassOneProbability(
        scores.size(), [&](size_t head) { return scores[head][r]; });
  }
  return out;
}

Result<double> LogisticRegression::PredictRowProba(
    std::span<const double> row) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, row.size()));
  const auto scores = ScoreDesign(DesignRow(scaler_, row));
  return ClassOneProbability(scores.size(),
                             [&](size_t head) { return scores[head][0]; });
}

LinearSvm::LinearSvm(const Options& options) : options_(options) {}

Status LinearSvm::Fit(const data::DataFrame& x, const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  EAFE_ASSIGN_OR_RETURN(const Matrix xm, DesignMatrix(scaler_, x));
  num_features_ = x.num_columns();
  Rng rng(options_.seed);
  if (options_.task == data::TaskType::kClassification) {
    // Hinge subgradient: -target x row for rows inside the margin.
    return FitOneVsRest(
        options_, xm, y, &rng,
        [](bool positive, double z) -> std::optional<double> {
          const double target = positive ? 1.0 : -1.0;
          if (target * z < 1.0) return -target;
          return std::nullopt;
        },
        &num_classes_, &weights_);
  }
  label_mean_ = 0.0;
  for (double v : y) label_mean_ += v;
  label_mean_ /= static_cast<double>(y.size());
  weights_.assign(1, std::vector<double>(xm.cols(), 0.0));
  // Epsilon-insensitive subgradient: the sign of a residual outside the
  // tube.
  TrainHead(
      options_, xm, &rng,
      [&](size_t i, double z) -> std::optional<double> {
        const double residual = z - (y[i] - label_mean_);
        if (residual > kSvrEpsilon) return 1.0;
        if (residual < -kSvrEpsilon) return -1.0;
        return 0.0;
      },
      &weights_[0]);
  return Status::OK();
}

Result<std::vector<double>> LinearSvm::Predict(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  EAFE_ASSIGN_OR_RETURN(Matrix xm, DesignMatrix(scaler_, x));
  std::vector<double> out(xm.rows());
  for (size_t r = 0; r < xm.rows(); ++r) {
    const double* row = xm.row(r);
    if (options_.task == data::TaskType::kRegression) {
      out[r] = Score(weights_[0], row) + label_mean_;
    } else if (weights_.size() == 1) {
      out[r] = Score(weights_[0], row) >= 0.0 ? 1.0 : 0.0;
    } else {
      double best_margin = 0.0;
      size_t best = 0;
      for (size_t head = 0; head < weights_.size(); ++head) {
        const double margin = Score(weights_[head], row);
        if (head == 0 || margin > best_margin) {
          best_margin = margin;
          best = head;
        }
      }
      out[r] = static_cast<double>(best);
    }
  }
  return out;
}

}  // namespace eafe::ml
