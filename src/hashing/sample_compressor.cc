#include "hashing/sample_compressor.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "hashing/minhash.h"

namespace eafe::hashing {

SampleCompressor::SampleCompressor(const CompressorOptions& options)
    : options_(options) {
  EAFE_CHECK_GT(options_.dimension, 0u);
}

std::vector<double> SampleCompressor::NormalizeWeights(
    const std::vector<double>& values) {
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<double> weights(values.size());
  if (hi > lo) {
    const double range = hi - lo;
    for (size_t i = 0; i < values.size(); ++i) {
      weights[i] = (values[i] - lo) / range;
    }
  } else {
    std::fill(weights.begin(), weights.end(), 1.0);
  }
  return weights;
}

namespace {

/// The input check and min-max normalization every entry point shares.
Result<std::vector<double>> ValidatedWeights(
    const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot compress an empty feature");
  }
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "feature contains non-finite values; clean before compressing");
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!std::isfinite(hi - lo)) {
    // Min-max normalization would divide by an infinite range and turn
    // the largest values into NaN weights.
    return Status::InvalidArgument(
        "feature's value range overflows a double; rescale before "
        "compressing");
  }
  return SampleCompressor::NormalizeWeights(values);
}

}  // namespace

Result<std::vector<size_t>> SampleCompressor::SelectIndices(
    const std::vector<double>& values) const {
  EAFE_ASSIGN_OR_RETURN(std::vector<double> weights,
                        ValidatedWeights(values));
  return WeightedMinHashSelect(options_.scheme, weights, options_.dimension,
                               options_.seed);
}

Result<std::vector<double>> SampleCompressor::Compress(
    const std::vector<double>& values) const {
  EAFE_ASSIGN_OR_RETURN(std::vector<double> weights,
                        ValidatedWeights(values));
  const std::vector<size_t> indices = WeightedMinHashSelect(
      options_.scheme, weights, options_.dimension, options_.seed);
  std::vector<double> signature(indices.size());
  for (size_t j = 0; j < indices.size(); ++j) {
    signature[j] = weights[indices[j]];
  }
  if (options_.sort_signature) {
    std::sort(signature.begin(), signature.end());
  }
  if (options_.extra_uniform_slots > 0) {
    // Unbiased companion sketch: min-wise hashing over row indices picks
    // each row uniformly, so these slots sample the value distribution
    // without the weight-proportional bias of consistent sampling.
    const std::vector<size_t> rows =
        UniformSlotRows(weights.size(), options_.seed ^ 0xA5A5A5A5ULL,
                        options_.extra_uniform_slots);
    std::vector<double> uniform(rows.size());
    for (size_t j = 0; j < rows.size(); ++j) uniform[j] = weights[rows[j]];
    if (options_.sort_signature) {
      std::sort(uniform.begin(), uniform.end());
    }
    signature.insert(signature.end(), uniform.begin(), uniform.end());
  }
  return signature;
}

Result<data::DataFrame> SampleCompressor::CompressFrame(
    const data::DataFrame& frame) const {
  data::DataFrame out;
  for (const data::Column& col : frame.columns()) {
    EAFE_ASSIGN_OR_RETURN(std::vector<double> signature,
                          Compress(col.values()));
    EAFE_RETURN_NOT_OK(
        out.AddColumn(data::Column(col.name(), std::move(signature))));
  }
  return out;
}

Result<double> SampleCompressor::EstimateSimilarity(
    const std::vector<double>& a, const std::vector<double>& b) const {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        "similarity requires equal-length features");
  }
  EAFE_ASSIGN_OR_RETURN(std::vector<size_t> sel_a, SelectIndices(a));
  EAFE_ASSIGN_OR_RETURN(std::vector<size_t> sel_b, SelectIndices(b));
  return EstimateJaccard(sel_a, sel_b);
}

}  // namespace eafe::hashing
