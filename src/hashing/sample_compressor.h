#ifndef EAFE_HASHING_SAMPLE_COMPRESSOR_H_
#define EAFE_HASHING_SAMPLE_COMPRESSOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "hashing/weighted_minhash.h"

namespace eafe::hashing {

/// Options for the FPE sample compressor (the MinHash module of Fig. 5).
struct CompressorOptions {
  MinHashScheme scheme = MinHashScheme::kCcws;  ///< Paper default.
  size_t dimension = 48;                        ///< Paper default d.
  uint64_t seed = 13;
  /// Sort the signature values ascending. Hash slots are exchangeable, so
  /// sorting turns the signature into an empirical quantile sketch of the
  /// weighted value distribution — a canonical representation the FPE
  /// classifier can consume (slot order itself carries no information).
  /// SelectIndices is unaffected.
  bool sort_signature = true;
  /// Augment the signature with `extra_uniform_slots` additional values
  /// sampled at hash-selected rows where every row is equally likely
  /// (plain min-wise hashing over row indices). Consistent weighted
  /// sampling picks rows with probability proportional to their weight,
  /// which concentrates the signature near the top of the distribution;
  /// the uniform slots restore an unbiased quantile sketch of the value
  /// distribution alongside it. The combined signature has
  /// dimension + extra_uniform_slots entries (each part sorted
  /// separately when sort_signature is set).
  size_t extra_uniform_slots = 0;
};

/// Compresses a feature column of arbitrary length M into a fixed-size
/// d-dimensional signature (Eq. 2): the feature is min-max normalized to a
/// nonnegative weight vector, each of the d hash slots consistently
/// samples one row index, and the signature stores the normalized feature
/// value at the selected rows. Because consistent sampling picks similar
/// rows for similar weight vectors, signature distance tracks the
/// generalized Jaccard similarity of the original features — the sample
/// similarity preservation the paper requires.
class SampleCompressor {
 public:
  SampleCompressor() : SampleCompressor(CompressorOptions()) {}
  explicit SampleCompressor(const CompressorOptions& options);

  /// Fixed-size signature for one feature (values of the selected rows).
  /// Errors on empty input, non-finite values, or values whose range
  /// overflows a double (min-max normalization would divide by inf).
  Result<std::vector<double>> Compress(const std::vector<double>& values) const;

  /// Row indices selected per hash slot (for similarity estimation and
  /// tests).
  Result<std::vector<size_t>> SelectIndices(
      const std::vector<double>& values) const;

  /// Compresses every column of a frame; the result has
  /// `options().dimension` rows and the same column names.
  Result<data::DataFrame> CompressFrame(const data::DataFrame& frame) const;

  /// Estimated similarity of two features from their selections (fraction
  /// of agreeing slots).
  Result<double> EstimateSimilarity(const std::vector<double>& a,
                                    const std::vector<double>& b) const;

  const CompressorOptions& options() const { return options_; }

  /// Min-max normalization of `values` to [0, 1] weights (constant input
  /// maps to all-ones so every row stays eligible).
  static std::vector<double> NormalizeWeights(
      const std::vector<double>& values);

 private:
  CompressorOptions options_;
};

}  // namespace eafe::hashing

#endif  // EAFE_HASHING_SAMPLE_COMPRESSOR_H_
