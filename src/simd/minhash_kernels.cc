#include "simd/minhash_kernels.h"

#include <cmath>
#include <limits>

#include "simd/portable_math.h"
#include "simd/simd.h"

namespace eafe::simd {
namespace internal {

size_t CwsArgminScalar(CwsKernelScheme scheme, const double* weights,
                       const double* log_weights, size_t n, uint64_t seed,
                       uint64_t slot) {
  double best_value = std::numeric_limits<double>::infinity();
  size_t best = n;
  // Sampling values are always finite (PortableLog never returns +inf
  // for the inputs the schemes produce), so a plain strict < against an
  // inf sentinel keeps first-minimum semantics.
  for (size_t k = 0; k < n; ++k) {
    if (weights[k] <= 0.0) continue;
    double value;
    switch (scheme) {
      case CwsKernelScheme::kIcws:
        value = IcwsValueAt(log_weights[k], seed, slot, k).value;
        break;
      case CwsKernelScheme::kPcws:
        value = PcwsValueAt(log_weights[k], seed, slot, k).value;
        break;
      default:
        value = CcwsValueAt(weights[k], seed, slot, k).value;
        break;
    }
    if (value < best_value) {
      best_value = value;
      best = k;
    }
  }
  return best;
}

CcwsScan::CcwsScan(double max_weight, size_t n)
    : span(max_weight + 2.0),
      best_value(std::numeric_limits<double>::infinity()),
      best(n) {}

void CcwsScan::Offer(double value, size_t k) {
  if (value < best_value || (value == best_value && k < best)) {
    best_value = value;
    best = k;
    threshold = CcwsPruneThreshold(best_value, span);
  }
}

double CcwsPruneThreshold(double best_value, double span) {
  // A row's value is PortableLog(c / (y + r2)) with c = -ln(u1 * u2) and
  // y + r2 <= w + r2 <= span, so u1 * u2 < exp(-A * span) proves
  // a >= A > exp(best_value): the row cannot win. The 1e-6 margin on A
  // absorbs the rounding of exp, of the division and of PortableLog's
  // ~1e-13 relative error; the 2^-50 nudge keeps the rounded threshold
  // below the true exp. A subnormal A has lost that margin to rounding,
  // and A == 0 (best is -inf) or a NaN/overflowed span gives a threshold
  // of 0 or NaN — every one of those cases prunes nothing.
  const double a = std::exp(best_value) * (1.0 + 1e-6);
  if (!(a >= std::numeric_limits<double>::min())) return 0.0;
  return std::exp(-(a * span)) * (1.0 - 0x1.0p-50);
}

double CcwsMaxWeight(const double* weights, size_t n) {
  double max_weight = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (weights[k] > max_weight) max_weight = weights[k];
    if (std::isnan(weights[k])) return weights[k];
  }
  return max_weight;
}

void CcwsScanRows(const double* weights, size_t begin, size_t end,
                  uint64_t seed, uint64_t slot, CcwsScan* scan) {
  for (size_t k = begin; k < end; ++k) {
    if (weights[k] <= 0.0) continue;
    const double u1 = Uniform01(seed, slot, k, kStreamC1);
    const double u2 = Uniform01(seed, slot, k, kStreamC2);
    if (u1 * u2 < scan->threshold) continue;
    scan->Offer(CcwsValueAt(weights[k], seed, slot, k).value, k);
  }
}

size_t CcwsArgminPrunedScalar(const double* weights, size_t n,
                              uint64_t seed, uint64_t slot) {
  CcwsScan scan(CcwsMaxWeight(weights, n), n);
  CcwsScanRows(weights, 0, n, seed, slot, &scan);
  return scan.best;
}

size_t PlainHashArgminScalar(const size_t* elements, size_t n,
                             uint64_t seed, uint64_t slot) {
  // Position 0 seeds the running best so an all-max-hash input still
  // returns the first position, exactly like the original scan.
  size_t best = 0;
  uint64_t best_hash =
      Mix64(seed, slot, elements != nullptr ? elements[0] : 0);
  for (size_t k = 1; k < n; ++k) {
    const uint64_t h =
        Mix64(seed, slot, elements != nullptr ? elements[k] : k);
    if (h < best_hash) {
      best_hash = h;
      best = k;
    }
  }
  return best;
}

}  // namespace internal

size_t CwsArgmin(CwsKernelScheme scheme, const double* weights,
                 const double* log_weights, size_t n, uint64_t seed,
                 uint64_t slot) {
  const Level level = ActiveLevel();
  internal::CountDispatch(Kernel::kCwsArgmin, level);
  if (level == Level::kAvx2) {
    return internal::CwsArgminAvx2(scheme, weights, log_weights, n, seed,
                                   slot);
  }
  if (scheme == CwsKernelScheme::kCcws) {
    return internal::CcwsArgminPrunedScalar(weights, n, seed, slot);
  }
  return internal::CwsArgminScalar(scheme, weights, log_weights, n, seed,
                                   slot);
}

size_t PlainHashArgmin(const size_t* elements, size_t n, uint64_t seed,
                       uint64_t slot) {
  const Level level = ActiveLevel();
  internal::CountDispatch(Kernel::kPlainArgmin, level);
  if (level == Level::kAvx2) {
    return internal::PlainHashArgminAvx2(elements, n, seed, slot);
  }
  return internal::PlainHashArgminScalar(elements, n, seed, slot);
}

}  // namespace eafe::simd
