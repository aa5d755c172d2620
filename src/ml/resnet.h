#ifndef EAFE_ML_RESNET_H_
#define EAFE_ML_RESNET_H_

#include <vector>

#include "core/matrix.h"
#include "data/scaler.h"
#include "ml/model.h"

namespace eafe::ml {

/// ResNet-style network for tabular data, following RTDL (Gorishniy et
/// al., 2021): a linear stem, residual blocks of the form
/// h <- h + W2 ReLU(W1 h + b1) + b2, and a linear head. Besides acting as
/// the "DL" baseline, `ExtractRepresentation` exposes the penultimate
/// activations so the paper's RTDL_N construction (ResNet features -> RF
/// head) can be reproduced.
class TabularResNet : public Model {
 public:
  struct Options {
    data::TaskType task = data::TaskType::kClassification;
    size_t width = 32;        ///< Residual stream width.
    size_t hidden = 64;       ///< Block bottleneck width.
    size_t num_blocks = 2;
    size_t epochs = 60;
    double learning_rate = 0.005;
    double l2 = 1e-4;
    uint64_t seed = 1;
  };

  TabularResNet() : TabularResNet(Options()) {}
  explicit TabularResNet(const Options& options);

  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override { return options_.task; }

  /// Penultimate (pre-head, post-ReLU) representation, one row per input
  /// row and `width` columns. Requires a fitted model.
  Result<data::DataFrame> ExtractRepresentation(
      const data::DataFrame& x) const;

  bool fitted() const { return stem_w_.rows() > 0; }

 private:
  struct ForwardCache {
    std::vector<Matrix> block_in;   ///< Stream entering each block.
    std::vector<Matrix> block_mid;  ///< ReLU(W1 h + b1) per block.
    Matrix pre_head;                ///< ReLU of the final stream.
    Matrix output;                  ///< Head logits / values.
  };

  ForwardCache Forward(const Matrix& batch) const;

  /// Forward over a frame: the predict check, standardization, Forward.
  Result<ForwardCache> ForwardFrame(const data::DataFrame& x) const;

  Options options_;
  data::StandardScaler scaler_;
  Matrix stem_w_;
  std::vector<double> stem_b_;
  std::vector<Matrix> block_w1_, block_w2_;
  std::vector<std::vector<double>> block_b1_, block_b2_;
  Matrix head_w_;
  std::vector<double> head_b_;
  size_t num_features_ = 0;
  size_t output_dim_ = 0;
  double label_mean_ = 0.0;
  double label_scale_ = 1.0;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_RESNET_H_
