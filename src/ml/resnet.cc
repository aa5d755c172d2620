#include "ml/resnet.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/rng.h"
#include "core/string_util.h"
#include "ml/network.h"

namespace eafe::ml {

TabularResNet::TabularResNet(const Options& options) : options_(options) {}

TabularResNet::ForwardCache TabularResNet::Forward(const Matrix& batch) const {
  ForwardCache cache;
  Matrix stream = batch.Multiply(stem_w_);
  AddBiasRows(&stream, stem_b_);
  for (size_t b = 0; b < block_w1_.size(); ++b) {
    cache.block_in.push_back(stream);
    Matrix mid = stream.Multiply(block_w1_[b]);
    AddBiasRows(&mid, block_b1_[b]);
    ReluInPlace(&mid);
    cache.block_mid.push_back(mid);
    Matrix update = mid.Multiply(block_w2_[b]);
    AddBiasRows(&update, block_b2_[b]);
    stream.AddInPlace(update);
  }
  cache.pre_head = stream;
  ReluInPlace(&cache.pre_head);
  cache.output = cache.pre_head.Multiply(head_w_);
  AddBiasRows(&cache.output, head_b_);
  return cache;
}

Status TabularResNet::Fit(const data::DataFrame& x,
                          const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  EAFE_ASSIGN_OR_RETURN(const Matrix xm, ScaledMatrix(scaler_, x));
  num_features_ = x.num_columns();
  EAFE_ASSIGN_OR_RETURN(const NetworkTargets targets,
                        PrepareTargets(options_.task, y));
  output_dim_ = targets.output_dim;
  label_mean_ = targets.label_mean;
  label_scale_ = targets.label_scale;

  Rng rng(options_.seed);
  const size_t width = options_.width;
  const size_t hidden = options_.hidden;
  auto init = [&](size_t in, size_t out) {
    return Matrix::RandomNormal(in, out,
                                std::sqrt(2.0 / static_cast<double>(in)),
                                &rng);
  };
  stem_w_ = init(num_features_, width);
  stem_b_.assign(width, 0.0);
  block_w1_.clear();
  block_w2_.clear();
  block_b1_.clear();
  block_b2_.clear();
  for (size_t b = 0; b < options_.num_blocks; ++b) {
    block_w1_.push_back(init(width, hidden));
    block_b1_.emplace_back(hidden, 0.0);
    // Near-zero block outputs at init keep the residual stream stable.
    block_w2_.push_back(Matrix::RandomNormal(hidden, width, 0.01, &rng));
    block_b2_.emplace_back(width, 0.0);
  }
  head_w_ = init(width, output_dim_);
  head_b_.assign(output_dim_, 0.0);

  const double lr = options_.learning_rate;
  DenseAdam stem_opt(lr), head_opt(lr);
  std::vector<DenseAdam> block1_opt(options_.num_blocks, DenseAdam(lr));
  std::vector<DenseAdam> block2_opt(options_.num_blocks, DenseAdam(lr));

  const size_t n = y.size();
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> order = rng.Permutation(n);
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      const Matrix batch = GatherBatch(xm, order, start, end);
      ForwardCache cache = Forward(batch);
      const Matrix delta = OutputDelta(options_.task, std::move(cache.output),
                                       targets.values, order, start);

      // d_stream holds dL/d(stream) below the layer being stepped; every
      // layer's gradients read its weights before its step changes them.
      Matrix d_stream = delta.Multiply(head_w_.Transpose());
      GateRelu(cache.pre_head, &d_stream);  // pre_head = ReLU(stream).
      head_opt.Step(cache.pre_head, delta, options_.l2, &head_w_, &head_b_);
      for (size_t b = block_w1_.size(); b-- > 0;) {
        Matrix d_mid = d_stream.Multiply(block_w2_[b].Transpose());
        GateRelu(cache.block_mid[b], &d_mid);
        block2_opt[b].Step(cache.block_mid[b], d_stream, options_.l2,
                           &block_w2_[b], &block_b2_[b]);
        // Residual connection: the gradient flows both through the block
        // and directly (identity), so d_stream gains the block path.
        d_stream.AddInPlace(d_mid.Multiply(block_w1_[b].Transpose()));
        block1_opt[b].Step(cache.block_in[b], d_mid, options_.l2,
                           &block_w1_[b], &block_b1_[b]);
      }
      stem_opt.Step(batch, d_stream, options_.l2, &stem_w_, &stem_b_);
    }
  }
  return Status::OK();
}

Result<TabularResNet::ForwardCache> TabularResNet::ForwardFrame(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  EAFE_ASSIGN_OR_RETURN(const Matrix xm, ScaledMatrix(scaler_, x));
  return Forward(xm);
}

Result<std::vector<double>> TabularResNet::Predict(
    const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(const ForwardCache cache, ForwardFrame(x));
  return DecodeOutputs(options_.task, cache.output, label_mean_,
                       label_scale_);
}

Result<data::DataFrame> TabularResNet::ExtractRepresentation(
    const data::DataFrame& x) const {
  EAFE_ASSIGN_OR_RETURN(const ForwardCache cache, ForwardFrame(x));
  std::vector<std::string> names;
  names.reserve(cache.pre_head.cols());
  for (size_t c = 0; c < cache.pre_head.cols(); ++c) {
    names.push_back(StrFormat("resnet_%zu", c));
  }
  return data::DataFrame::FromMatrix(cache.pre_head, names);
}

}  // namespace eafe::ml
