#include "hashing/minhash.h"

#include <algorithm>

#include "core/check.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"

namespace eafe::hashing {

uint64_t MixHash(uint64_t seed, uint64_t slot, uint64_t element) {
  // splitmix64-style finalizer over a combined key; the definition lives
  // in simd/portable_math.h so the vector kernels and this entry point
  // cannot drift apart.
  return simd::Mix64(seed, slot, element);
}

std::vector<size_t> PlainMinHashSelect(const std::vector<double>& weights,
                                       size_t num_slots, uint64_t seed) {
  EAFE_CHECK(!weights.empty());
  double mean = 0.0;
  for (double w : weights) mean += w;
  mean /= static_cast<double>(weights.size());

  std::vector<size_t> support;
  support.reserve(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > mean) support.push_back(i);
  }
  if (support.empty()) {
    support.resize(weights.size());
    for (size_t i = 0; i < weights.size(); ++i) support[i] = i;
  }

  std::vector<size_t> selected(num_slots);
  for (size_t j = 0; j < num_slots; ++j) {
    selected[j] = support[simd::PlainHashArgmin(support.data(),
                                                support.size(), seed, j)];
  }
  return selected;
}

double EstimateJaccard(const std::vector<size_t>& selection_a,
                       const std::vector<size_t>& selection_b) {
  EAFE_CHECK_EQ(selection_a.size(), selection_b.size());
  if (selection_a.empty()) return 0.0;
  size_t agree = 0;
  for (size_t j = 0; j < selection_a.size(); ++j) {
    if (selection_a[j] == selection_b[j]) ++agree;
  }
  return static_cast<double>(agree) /
         static_cast<double>(selection_a.size());
}

double GeneralizedJaccard(const std::vector<double>& a,
                          const std::vector<double>& b) {
  EAFE_CHECK_EQ(a.size(), b.size());
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    EAFE_CHECK_GE(a[i], 0.0);
    EAFE_CHECK_GE(b[i], 0.0);
    min_sum += std::min(a[i], b[i]);
    max_sum += std::max(a[i], b[i]);
  }
  return max_sum > 0.0 ? min_sum / max_sum : 1.0;
}

}  // namespace eafe::hashing
