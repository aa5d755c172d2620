#include "ml/resnet.h"

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

void AddBiasRows(Matrix* m, const std::vector<double>& bias) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->row(r);
    for (size_t c = 0; c < m->cols(); ++c) row[c] += bias[c];
  }
}

void ReluInPlace(Matrix* m) {
  for (double& v : m->data()) v = std::max(v, 0.0);
}

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

std::vector<double> ColumnSums(const Matrix& m) {
  std::vector<double> sums(m.cols(), 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) sums[c] += row[c];
  }
  return sums;
}

}  // namespace

TabularResNet::TabularResNet(const Options& options) : options_(options) {}

TabularResNet::ForwardCache TabularResNet::Forward(const Matrix& batch) const {
  ForwardCache cache;
  cache.stem_out = batch.Multiply(stem_w_);
  AddBiasRows(&cache.stem_out, stem_b_);
  Matrix stream = cache.stem_out;
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
  if (x.num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument("rows and labels disagree or are empty");
  }
  EAFE_RETURN_NOT_OK(scaler_.Fit(x));
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(x));
  const Matrix xm = scaled.ToMatrix();
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
    label_mean_ = 0.0;
    for (double v : y) label_mean_ += v;
    label_mean_ /= static_cast<double>(n);
    double var = 0.0;
    for (double v : y) var += (v - label_mean_) * (v - label_mean_);
    var /= static_cast<double>(n);
    label_scale_ = var > 0.0 ? std::sqrt(var) : 1.0;
    for (double& v : targets) v = (v - label_mean_) / label_scale_;
  }

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

  Adam::Options adam_options;
  adam_options.learning_rate = options_.learning_rate;
  Adam stem_w_opt(adam_options), stem_b_opt(adam_options);
  Adam head_w_opt(adam_options), head_b_opt(adam_options);
  std::vector<Adam> w1_opt(options_.num_blocks, Adam(adam_options));
  std::vector<Adam> b1_opt(options_.num_blocks, Adam(adam_options));
  std::vector<Adam> w2_opt(options_.num_blocks, Adam(adam_options));
  std::vector<Adam> b2_opt(options_.num_blocks, Adam(adam_options));

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
      ForwardCache cache = Forward(batch);

      Matrix delta = cache.output;
      if (options_.task == data::TaskType::kClassification) {
        SoftmaxRows(&delta);
        for (size_t k = 0; k < batch_n; ++k) {
          delta(k, static_cast<size_t>(targets[order[start + k]])) -= 1.0;
        }
      } else {
        for (size_t k = 0; k < batch_n; ++k) {
          delta(k, 0) -= targets[order[start + k]];
        }
      }
      const double inv_batch = 1.0 / static_cast<double>(batch_n);
      for (double& v : delta.data()) v *= inv_batch;

      // Head gradients.
      Matrix grad_head_w = cache.pre_head.Transpose().Multiply(delta);
      grad_head_w.AddInPlace(head_w_, options_.l2);
      std::vector<double> grad_head_b = ColumnSums(delta);
      Matrix d_stream = delta.Multiply(head_w_.Transpose());
      // Gate through the final ReLU (pre_head = ReLU(stream)).
      for (size_t i = 0; i < d_stream.size(); ++i) {
        if (cache.pre_head.data()[i] <= 0.0) d_stream.data()[i] = 0.0;
      }
      head_w_opt.Step(&head_w_.data(), grad_head_w.data());
      head_b_opt.Step(&head_b_, grad_head_b);

      // Blocks in reverse. d_stream holds dL/d(stream after block b).
      for (size_t b = block_w1_.size(); b-- > 0;) {
        Matrix grad_w2 =
            cache.block_mid[b].Transpose().Multiply(d_stream);
        grad_w2.AddInPlace(block_w2_[b], options_.l2);
        std::vector<double> grad_b2 = ColumnSums(d_stream);
        Matrix d_mid = d_stream.Multiply(block_w2_[b].Transpose());
        for (size_t i = 0; i < d_mid.size(); ++i) {
          if (cache.block_mid[b].data()[i] <= 0.0) d_mid.data()[i] = 0.0;
        }
        Matrix grad_w1 = cache.block_in[b].Transpose().Multiply(d_mid);
        grad_w1.AddInPlace(block_w1_[b], options_.l2);
        std::vector<double> grad_b1 = ColumnSums(d_mid);
        // Residual connection: gradient flows both through the block and
        // directly (identity), so d_stream gains the block path.
        d_stream.AddInPlace(d_mid.Multiply(block_w1_[b].Transpose()));
        w2_opt[b].Step(&block_w2_[b].data(), grad_w2.data());
        b2_opt[b].Step(&block_b2_[b], grad_b2);
        w1_opt[b].Step(&block_w1_[b].data(), grad_w1.data());
        b1_opt[b].Step(&block_b1_[b], grad_b1);
      }

      Matrix grad_stem_w = batch.Transpose().Multiply(d_stream);
      grad_stem_w.AddInPlace(stem_w_, options_.l2);
      std::vector<double> grad_stem_b = ColumnSums(d_stream);
      stem_w_opt.Step(&stem_w_.data(), grad_stem_w.data());
      stem_b_opt.Step(&stem_b_, grad_stem_b);
    }
  }
  return Status::OK();
}

Result<std::vector<double>> TabularResNet::Predict(
    const data::DataFrame& x) const {
  if (!fitted()) return Status::FailedPrecondition("model is not fitted");
  if (x.num_columns() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %zu features, got %zu", num_features_,
                  x.num_columns()));
  }
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(x));
  ForwardCache cache = Forward(scaled.ToMatrix());
  std::vector<double> out(cache.output.rows());
  if (options_.task == data::TaskType::kRegression) {
    for (size_t r = 0; r < out.size(); ++r) {
      out[r] = cache.output(r, 0) * label_scale_ + label_mean_;
    }
    return out;
  }
  for (size_t r = 0; r < out.size(); ++r) {
    size_t best = 0;
    for (size_t c = 1; c < cache.output.cols(); ++c) {
      if (cache.output(r, c) > cache.output(r, best)) best = c;
    }
    out[r] = static_cast<double>(best);
  }
  return out;
}

Result<data::DataFrame> TabularResNet::ExtractRepresentation(
    const data::DataFrame& x) const {
  if (!fitted()) return Status::FailedPrecondition("model is not fitted");
  if (x.num_columns() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %zu features, got %zu", num_features_,
                  x.num_columns()));
  }
  EAFE_ASSIGN_OR_RETURN(data::DataFrame scaled, scaler_.Transform(x));
  ForwardCache cache = Forward(scaled.ToMatrix());
  std::vector<std::string> names;
  names.reserve(cache.pre_head.cols());
  for (size_t c = 0; c < cache.pre_head.cols(); ++c) {
    names.push_back(StrFormat("resnet_%zu", c));
  }
  return data::DataFrame::FromMatrix(cache.pre_head, names);
}

}  // namespace eafe::ml
