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

Result<std::vector<double>> SampleCompressor::NormalizeWeights(
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
  const double range = hi - lo;
  if (!std::isfinite(range)) {
    // Dividing by an infinite range would turn the largest values into
    // NaN weights.
    return Status::InvalidArgument(
        "feature's value range overflows a double; rescale before "
        "compressing");
  }
  std::vector<double> weights(values.size(), 1.0);
  if (hi > lo) {
    for (size_t i = 0; i < values.size(); ++i) {
      weights[i] = (values[i] - lo) / range;
    }
  }
  return weights;
}

Result<std::vector<size_t>> SampleCompressor::SelectIndices(
    const std::vector<double>& values) const {
  EAFE_ASSIGN_OR_RETURN(std::vector<double> weights,
                        NormalizeWeights(values));
  return WeightedMinHashSelect(options_.scheme, weights, options_.dimension,
                               options_.seed);
}

Result<std::vector<double>> SampleCompressor::Compress(
    const std::vector<double>& values) const {
  EAFE_ASSIGN_OR_RETURN(std::vector<double> weights,
                        NormalizeWeights(values));
  const std::vector<size_t> sampled = WeightedMinHashSelect(
      options_.scheme, weights, options_.dimension, options_.seed);
  const std::vector<size_t> uniform =
      UniformSlotRows(weights.size(), options_.seed ^ 0xA5A5A5A5ULL,
                      options_.dimension);
  std::vector<double> signature;
  signature.reserve(signature_size());
  for (size_t row : sampled) signature.push_back(weights[row]);
  for (size_t row : uniform) signature.push_back(weights[row]);
  const auto half = signature.begin() + static_cast<ptrdiff_t>(
                                            options_.dimension);
  std::sort(signature.begin(), half);
  std::sort(half, signature.end());
  return signature;
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
