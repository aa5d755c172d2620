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

/// The distinct compressor backends, for comparisons across them (the Q6
/// bench, micro_hashing): the four hash families and the exact-quantile
/// baseline. kLicws is left out because it selects ICWS's rows.
const std::vector<MinHashScheme>& AllMinHashSchemes();

/// Selected element per slot for `num_slots` hash functions, deterministic
/// in (scheme, weights, seed). `weights` must be nonempty. The CWS schemes
/// need nonnegative weights and select, per slot, the element whose
/// consistent weighted sample wins it, never one of weight 0; they fall
/// back to plain hashing over all elements when every weight is zero.
/// A kCcws selection over a (length, seed, num_slots) that recurs reads
/// that key's memoized candidate list (ccws_candidates.h) instead of
/// hashing every element; the result is the same.
std::vector<size_t> WeightedMinHashSelect(MinHashScheme scheme,
                                          const std::vector<double>& weights,
                                          size_t num_slots, uint64_t seed);

/// The rows the uniform companion slots of SampleCompressor sample in a
/// column of `rows` elements: slot j's row is
/// simd::PlainHashArgmin(nullptr, rows, seed, j), plain min-wise hashing
/// over row indices. That depends on (rows, seed, num_slots) and never on
/// the column's values, so every column of a search shares it: the result
/// is memoized beside the kCcws candidate lists (safe to call from any
/// thread).
std::vector<size_t> UniformSlotRows(size_t rows, uint64_t seed,
                                    size_t num_slots);

/// Candidate lists the selection memo holds at most (a list is 48 KiB at
/// 48 slots), the CCWS selections after which an unused list is dropped,
/// and how many lists the memo holds now (for tests).
inline constexpr size_t kMaxCcwsLists = 8;
inline constexpr uint64_t kCcwsIdleSelections = 64;
size_t CcwsListsHeld();

}  // namespace eafe::hashing

#endif  // EAFE_HASHING_WEIGHTED_MINHASH_H_
