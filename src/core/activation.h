#ifndef EAFE_CORE_ACTIVATION_H_
#define EAFE_CORE_ACTIVATION_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

namespace eafe {

/// Logistic function. Branches on the sign so exp never overflows; the
/// logistic heads, the booster's gradients and every boosted predict
/// share it.
inline double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// Softmax of `logits` in place. Subtracts the largest logit first, so
/// exp never overflows. `logits` must not be empty.
inline void SoftmaxInPlace(std::span<double> logits) {
  double max_logit = logits[0];
  for (size_t i = 1; i < logits.size(); ++i) {
    max_logit = std::max(max_logit, logits[i]);
  }
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    total += v;
  }
  for (double& v : logits) v /= total;
}

}  // namespace eafe

#endif  // EAFE_CORE_ACTIVATION_H_
