#include "ml/network.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>

#include "core/activation.h"
#include "ml/histogram_builder.h"

namespace eafe::ml {

Result<NetworkTargets> PrepareTargets(data::TaskType task,
                                      const std::vector<double>& y) {
  NetworkTargets targets;
  targets.values = y;
  if (task == data::TaskType::kClassification) {
    EAFE_ASSIGN_OR_RETURN(const BinnedLabels labels,
                          BinnedLabels::Create(task, y));
    targets.output_dim = static_cast<size_t>(labels.num_classes);
    if (std::adjacent_find(labels.classes.begin(), labels.classes.end(),
                           std::not_equal_to<int>()) ==
        labels.classes.end()) {
      return Status::InvalidArgument("need at least 2 classes");
    }
    return targets;
  }
  targets.output_dim = 1;
  const double n = static_cast<double>(y.size());
  for (double v : y) targets.label_mean += v;
  targets.label_mean /= n;
  double var = 0.0;
  for (double v : y) {
    var += (v - targets.label_mean) * (v - targets.label_mean);
  }
  var /= n;
  targets.label_scale = var > 0.0 ? std::sqrt(var) : 1.0;
  for (double& v : targets.values) {
    v = (v - targets.label_mean) / targets.label_scale;
  }
  return targets;
}

Result<Matrix> ScaledMatrix(const data::StandardScaler& scaler,
                            const data::DataFrame& x) {
  EAFE_ASSIGN_OR_RETURN(const data::DataFrame scaled, scaler.Transform(x));
  return scaled.ToMatrix();
}

Matrix GatherBatch(const Matrix& xm, const std::vector<size_t>& order,
                   size_t start, size_t end) {
  Matrix batch(end - start, xm.cols());
  for (size_t k = 0; k < batch.rows(); ++k) {
    const double* src = xm.row(order[start + k]);
    std::copy(src, src + xm.cols(), batch.row(k));
  }
  return batch;
}

Matrix OutputDelta(data::TaskType task, Matrix output,
                   const std::vector<double>& targets,
                   const std::vector<size_t>& order, size_t start) {
  if (task == data::TaskType::kClassification) {
    SoftmaxRows(&output);
    for (size_t k = 0; k < output.rows(); ++k) {
      output(k, static_cast<size_t>(targets[order[start + k]])) -= 1.0;
    }
  } else {
    for (size_t k = 0; k < output.rows(); ++k) {
      output(k, 0) -= targets[order[start + k]];
    }
  }
  const double inv_batch = 1.0 / static_cast<double>(output.rows());
  for (double& v : output.data()) v *= inv_batch;
  return output;
}

std::vector<double> DecodeOutputs(data::TaskType task, const Matrix& output,
                                  double label_mean, double label_scale) {
  std::vector<double> out(output.rows());
  for (size_t r = 0; r < output.rows(); ++r) {
    if (task == data::TaskType::kRegression) {
      out[r] = output(r, 0) * label_scale + label_mean;
      continue;
    }
    const double* row = output.row(r);
    out[r] = static_cast<double>(std::max_element(row, row + output.cols()) -
                                 row);
  }
  return out;
}

void AddBiasRows(Matrix* m, const std::vector<double>& bias) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->row(r);
    for (size_t c = 0; c < m->cols(); ++c) row[c] += bias[c];
  }
}

void ReluInPlace(Matrix* m) {
  for (double& v : m->data()) v = std::max(v, 0.0);
}

void GateRelu(const Matrix& activation, Matrix* grad) {
  for (size_t i = 0; i < grad->size(); ++i) {
    if (activation.data()[i] <= 0.0) grad->data()[i] = 0.0;
  }
}

std::vector<double> ColumnSums(const Matrix& m) {
  std::vector<double> sums(m.cols(), 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) sums[c] += row[c];
  }
  return sums;
}

void SoftmaxRows(Matrix* m) {
  for (size_t r = 0; r < m->rows(); ++r) {
    SoftmaxInPlace(std::span<double>(m->row(r), m->cols()));
  }
}

void DenseAdam::Step(const Matrix& input, const Matrix& delta, double l2,
                     Matrix* layer_weights, std::vector<double>* layer_bias) {
  Matrix grad = input.Transpose().Multiply(delta);
  grad.AddInPlace(*layer_weights, l2);
  weights.Step(&layer_weights->data(), grad.data());
  bias.Step(layer_bias, ColumnSums(delta));
}

}  // namespace eafe::ml
