#ifndef EAFE_HASHING_SAMPLE_COMPRESSOR_H_
#define EAFE_HASHING_SAMPLE_COMPRESSOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"
#include "hashing/weighted_minhash.h"

namespace eafe::hashing {

/// Options for the FPE sample compressor (the MinHash module of Fig. 5).
struct CompressorOptions {
  MinHashScheme scheme = MinHashScheme::kCcws;  ///< Paper default.
  size_t dimension = 48;                        ///< Paper default d.
  uint64_t seed = 13;
};

/// Compresses a feature column of arbitrary length M into a fixed-size
/// signature (Eq. 2): the feature is min-max normalized to a nonnegative
/// weight vector, each of the d hash slots consistently samples one row
/// index, and the signature stores the normalized feature value at the
/// selected rows. Because consistent sampling picks similar rows for
/// similar weight vectors, signature distance tracks the generalized
/// Jaccard similarity of the original features — the sample similarity
/// preservation the paper requires.
///
/// The signature has two sorted halves of d values each (DESIGN.md §4b,
/// "Signature content"):
/// - the consistent sample: the weights at the d rows the scheme selects.
///   Consistent weighted sampling picks rows with probability
///   proportional to their weight, which concentrates these values near
///   the top of the distribution;
/// - the uniform companion: the weights at d rows picked by plain
///   min-wise hashing over row indices (UniformSlotRows), where every row
///   is equally likely, an unbiased sketch of the value distribution.
/// Hash slots are exchangeable, so sorting each half turns it into an
/// empirical quantile sketch that the FPE classifier can consume (slot
/// order itself carries no information).
class SampleCompressor {
 public:
  SampleCompressor() : SampleCompressor(CompressorOptions()) {}
  explicit SampleCompressor(const CompressorOptions& options);

  /// Fixed-size signature for one feature, signature_size() values.
  /// Errors as NormalizeWeights does.
  Result<std::vector<double>> Compress(const std::vector<double>& values) const;

  /// Width of every signature: the consistent sample and the uniform
  /// companion, `dimension` values each.
  size_t signature_size() const { return 2 * options_.dimension; }

  /// Row indices the scheme selects per hash slot (the consistent-sample
  /// half; for similarity estimation and tests).
  Result<std::vector<size_t>> SelectIndices(
      const std::vector<double>& values) const;

  /// Estimated similarity of two features from their selections (fraction
  /// of agreeing slots).
  Result<double> EstimateSimilarity(const std::vector<double>& a,
                                    const std::vector<double>& b) const;

  const CompressorOptions& options() const { return options_; }

  /// Min-max normalization of `values` to [0, 1] weights (constant input
  /// maps to all-ones so every row stays eligible). Errors on empty
  /// input, non-finite values, or values whose range overflows a double
  /// (normalization would divide by inf).
  static Result<std::vector<double>> NormalizeWeights(
      const std::vector<double>& values);

 private:
  CompressorOptions options_;
};

}  // namespace eafe::hashing

#endif  // EAFE_HASHING_SAMPLE_COMPRESSOR_H_
