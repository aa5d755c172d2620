#ifndef EAFE_ML_NETWORK_H_
#define EAFE_ML_NETWORK_H_

#include <cstddef>
#include <vector>

#include "core/matrix.h"
#include "core/optimizer.h"
#include "core/status.h"
#include "data/dataframe.h"
#include "data/scaler.h"

// The training pieces the neural learners (Mlp, TabularResNet) share: the
// target encoding, the mini-batch gather, the loss gradient at the
// output, the predict decode, and the row ops of a dense layer.

namespace eafe::ml {

/// Training targets of a network fit, encoded for its output layer.
struct NetworkTargets {
  /// Class ids, or regression targets standardized by label_mean and
  /// label_scale so one learning rate behaves across target scales.
  std::vector<double> values;
  size_t output_dim = 0;     ///< Class count, or 1 for regression.
  double label_mean = 0.0;   ///< 0 for classification.
  double label_scale = 1.0;  ///< 1 for classification.
};

/// Encodes `y` for a `task` network. Classification needs valid class
/// ids, at least two of them distinct.
Result<NetworkTargets> PrepareTargets(data::TaskType task,
                                      const std::vector<double>& y);

/// `x` standardized by a fitted `scaler`, as a row-major matrix.
Result<Matrix> ScaledMatrix(const data::StandardScaler& scaler,
                            const data::DataFrame& x);

/// The rows order[start, end) of `xm`, in that order.
Matrix GatherBatch(const Matrix& xm, const std::vector<size_t>& order,
                   size_t start, size_t end);

/// Gradient of the batch's mean loss at the raw `output` of the batch rows
/// order[start, start + output.rows()): softmax minus the one-hot target
/// for classification (cross-entropy), the residual for regression (MSE),
/// each divided by the batch size.
Matrix OutputDelta(data::TaskType task, Matrix output,
                   const std::vector<double>& targets,
                   const std::vector<size_t>& order, size_t start);

/// Predicted labels from raw outputs: per row the first largest output's
/// class id, or the output mapped back to the target's scale.
std::vector<double> DecodeOutputs(data::TaskType task, const Matrix& output,
                                  double label_mean, double label_scale);

/// Adds `bias` to every row of `m`.
void AddBiasRows(Matrix* m, const std::vector<double>& bias);

void ReluInPlace(Matrix* m);

/// Backpropagates through a ReLU: zeroes `grad` wherever the ReLU's output
/// `activation` is not positive (ReLU(z) > 0 iff z > 0).
void GateRelu(const Matrix& activation, Matrix* grad);

std::vector<double> ColumnSums(const Matrix& m);

/// Softmax of every row of `m`, in place.
void SoftmaxRows(Matrix* m);

/// Adam states of one dense layer out = input x weights + bias.
struct DenseAdam {
  explicit DenseAdam(double learning_rate)
      : weights(learning_rate), bias(learning_rate) {}

  /// One step from `delta`, the loss gradient at the layer's output: the
  /// weight gradient is input^T delta + l2 x weights, the bias gradient
  /// delta's column sums.
  void Step(const Matrix& input, const Matrix& delta, double l2,
            Matrix* layer_weights, std::vector<double>* layer_bias);

  Adam weights;
  Adam bias;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_NETWORK_H_
