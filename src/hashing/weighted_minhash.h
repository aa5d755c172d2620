#ifndef EAFE_HASHING_WEIGHTED_MINHASH_H_
#define EAFE_HASHING_WEIGHTED_MINHASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace eafe::hashing {

/// The weighted-MinHash (consistent weighted sampling) family evaluated in
/// the paper (Table III superscripts):
///  - kIcws:  Ioffe's Improved CWS (Gamma(2,1) scale/offset).
///  - kPcws:  Practical CWS (Wu et al., 2017) — one gamma replaced by a
///            uniform draw, cheaper with near-identical estimates.
///  - kCcws:  Canonical CWS (Wu et al., 2016) — quantizes the weight
///            itself instead of its logarithm; the paper's default.
///  - kLicws: Li's 0-bit CWS — ICWS sampling with the quantization index
///            dropped from the signature. A signature here holds only the
///            selected rows, so it selects exactly ICWS's rows.
///  - kPlain: classic unweighted MinHash over the thresholded support
///            (baseline; not a CWS member).
///  - kExactQuantile: not a hash at all — deterministic rank-based row
///            selection at d evenly spaced quantiles (the "quantile data
///            sketch" of LFE, cited in the paper's related work). Serves
///            as the exact, non-hashing baseline for Q6 ("Why MinHash?")
///            comparisons: same fixed-size output, no similarity
///            estimation guarantees, O(M log M) per feature.
enum class MinHashScheme {
  kPlain,
  kIcws,
  kCcws,
  kPcws,
  kLicws,
  kExactQuantile,
};

std::string MinHashSchemeToString(MinHashScheme scheme);
Result<MinHashScheme> MinHashSchemeFromString(const std::string& name);

/// All schemes (useful for the Eq. 6 search over hash families).
const std::vector<MinHashScheme>& AllMinHashSchemes();

/// Selected element per slot for `num_slots` hash functions, deterministic
/// in (scheme, weights, seed). `weights` must be nonempty. The CWS schemes
/// need nonnegative weights and select, per slot, the element whose
/// consistent weighted sample wins it, never one of weight 0; they fall
/// back to plain hashing over all elements when every weight is zero.
std::vector<size_t> WeightedMinHashSelect(MinHashScheme scheme,
                                          const std::vector<double>& weights,
                                          size_t num_slots, uint64_t seed);

}  // namespace eafe::hashing

#endif  // EAFE_HASHING_WEIGHTED_MINHASH_H_
