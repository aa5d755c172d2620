#ifndef EAFE_HASHING_MINHASH_H_
#define EAFE_HASHING_MINHASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eafe::hashing {

/// Stateless mixing hash of (seed, slot, element) -> uniform uint64. All
/// MinHash variants derive their per-element randomness from this, so
/// signatures are deterministic in the scheme seed and independent of
/// evaluation order.
uint64_t MixHash(uint64_t seed, uint64_t slot, uint64_t element);

/// Classic (unweighted) MinHash over the support of a weight vector: the
/// element set is {i : weights[i] > threshold} with threshold = mean
/// weight, and slot j selects argmin_i MixHash(seed, j, i). If the
/// thresholded set is empty, all elements participate.
///
/// Returns one selected element index per slot.
std::vector<size_t> PlainMinHashSelect(const std::vector<double>& weights,
                                       size_t num_slots, uint64_t seed);

/// Fraction of slots whose selections agree — the MinHash estimate of the
/// Jaccard similarity between the two hashed sets. Sizes must match.
double EstimateJaccard(const std::vector<size_t>& selection_a,
                       const std::vector<size_t>& selection_b);

/// Exact generalized (weighted) Jaccard: sum_i min(a_i, b_i) /
/// sum_i max(a_i, b_i) over nonnegative weight vectors. The ground truth
/// that weighted MinHash schemes estimate (Eq. 2's sim).
double GeneralizedJaccard(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace eafe::hashing

#endif  // EAFE_HASHING_MINHASH_H_
