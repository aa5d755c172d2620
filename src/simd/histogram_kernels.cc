#include "simd/histogram_kernels.h"

#include <algorithm>

#include "simd/simd.h"

namespace eafe::simd {
namespace {

/// ClassSplitScan's one body. A nonzero kWidth fixes the class count at
/// compile time, so the loops over classes unroll and the left counts
/// stay in registers; kWidth == 0 reads `runtime_width` and accumulates
/// into the caller's `left_buffer`. Every sum runs in class order from 0.0, so
/// both instantiations return the same bits for the same counts.
template <size_t kWidth>
SplitScan ClassScan(const double* h, size_t bins, size_t runtime_width,
                    const double* totals, double n, double min_leaf,
                    double parent_impurity, double* left_buffer) {
  internal::CountDispatch(Kernel::kSplitScan, Level::kScalar);
  double fixed[kWidth == 0 ? 1 : kWidth] = {};
  const size_t width = kWidth == 0 ? runtime_width : kWidth;
  double* left = kWidth == 0 ? left_buffer : fixed;
  std::fill(left, left + width, 0.0);
  SplitScan best;
  double left_n = 0.0;
  // Boundary after bin b: left = bins [0, b], right = the rest. An empty
  // bin's boundary duplicates the previous candidate's partition, so it
  // is skipped; left_n only grows, so the scan stops once the right side
  // is below the leaf minimum.
  for (size_t b = 0; b + 1 < bins; ++b) {
    const double* entry = h + b * width;
    double bin_n = 0.0;
    for (size_t c = 0; c < width; ++c) bin_n += entry[c];
    if (bin_n <= 0.0) continue;  // Empty bin: duplicate boundary.
    for (size_t c = 0; c < width; ++c) left[c] += entry[c];
    left_n += bin_n;
    const double right_n = n - left_n;
    if (right_n <= 0.0 || right_n < min_leaf) break;
    if (left_n < min_leaf) continue;

    const double wl = left_n / n;
    double left_sq = 0.0;
    double right_sq = 0.0;
    for (size_t c = 0; c < width; ++c) {
      const double pl = left[c] / left_n;
      const double pr = (totals[c] - left[c]) / right_n;
      left_sq += pl * pl;
      right_sq += pr * pr;
    }
    const double gini_left = 1.0 - left_sq;
    const double gini_right = 1.0 - right_sq;
    const double impurity = wl * gini_left + (1.0 - wl) * gini_right;
    const double gain = parent_impurity - impurity;
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = static_cast<int>(b);
    }
  }
  return best;
}

}  // namespace

void AccumulateClassCounts(const uint8_t* codes, const size_t* indices,
                           size_t n, const int* classes, size_t width,
                           double* out) {
  internal::CountDispatch(Kernel::kClassCounts, Level::kScalar);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = indices[i];
    out[codes[row] * width + static_cast<size_t>(classes[row])] += 1.0;
  }
}

void AccumulateSquares(const uint8_t* codes, const size_t* indices,
                       size_t n, const double* y, double* out) {
  internal::CountDispatch(Kernel::kTriples, Level::kScalar);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = indices[i];
    const double value = y[row];
    double* entry = out + codes[row] * 3;
    entry[0] += 1.0;
    entry[1] += value;
    entry[2] += value * value;
  }
}

void AccumulateGradientPairs(const uint8_t* codes, const size_t* indices,
                             size_t n, const double* g, const double* h,
                             double* out) {
  internal::CountDispatch(Kernel::kTriples, Level::kScalar);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = indices[i];
    double* entry = out + codes[row] * 3;
    entry[0] += 1.0;
    entry[1] += g[row];
    entry[2] += h[row];
  }
}

void SubtractArrays(const double* a, const double* b, size_t n,
                    double* out) {
  internal::CountDispatch(Kernel::kSubtract, Level::kScalar);
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

SplitScan GradientSplitScan(const double* h, size_t bins, double total_n,
                            double total_g, double total_h,
                            double min_leaf, double lambda,
                            double parent_term) {
  internal::CountDispatch(Kernel::kSplitScan, Level::kScalar);
  SplitScan best;
  double left_n = 0.0, left_g = 0.0, left_h = 0.0;
  // Empty bins duplicate the previous boundary and are skipped; the scan
  // stops once the right side drops below the leaf minimum (left_n only
  // grows, so the condition is monotone).
  for (size_t b = 0; b + 1 < bins; ++b) {
    const double* entry = h + b * 3;
    if (entry[0] <= 0.0) continue;  // Empty bin: duplicate boundary.
    left_n += entry[0];
    left_g += entry[1];
    left_h += entry[2];
    const double right_n = total_n - left_n;
    if (right_n <= 0.0 || right_n < min_leaf) break;
    if (left_n < min_leaf) continue;

    const double right_g = total_g - left_g;
    const double right_h = total_h - left_h;
    const double gain =
        0.5 * (left_g * left_g / (left_h + lambda) +
               right_g * right_g / (right_h + lambda) - parent_term);
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = static_cast<int>(b);
    }
  }
  return best;
}

SplitScan RegressionSplitScan(const double* h, size_t bins, double n,
                              double total_sum, double total_sum2,
                              double min_leaf, double parent_impurity) {
  internal::CountDispatch(Kernel::kSplitScan, Level::kScalar);
  SplitScan best;
  double left_n = 0.0, left_sum = 0.0, left_sum2 = 0.0;
  for (size_t b = 0; b + 1 < bins; ++b) {
    const double* entry = h + b * 3;
    const double bin_n = entry[0];
    if (bin_n <= 0.0) continue;  // Empty bin: duplicate boundary.
    left_n += entry[0];
    left_sum += entry[1];
    left_sum2 += entry[2];
    const double right_n = n - left_n;
    if (right_n <= 0.0 || right_n < min_leaf) break;
    if (left_n < min_leaf) continue;

    const double wl = left_n / n;
    const double right_sum = total_sum - left_sum;
    const double right_sum2 = total_sum2 - left_sum2;
    const double lm = left_sum / left_n;
    const double rm = right_sum / right_n;
    const double left_var = left_sum2 / left_n - lm * lm;
    const double right_var = right_sum2 / right_n - rm * rm;
    const double impurity = wl * left_var + (1.0 - wl) * right_var;
    const double gain = parent_impurity - impurity;
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = static_cast<int>(b);
    }
  }
  return best;
}

SplitScan ClassSplitScan(const double* h, size_t bins, size_t width,
                         const double* totals, double n, double min_leaf,
                         double parent_impurity, double* left) {
  if (width == 2) {
    return ClassScan<2>(h, bins, width, totals, n, min_leaf,
                        parent_impurity, nullptr);
  }
  return ClassScan<0>(h, bins, width, totals, n, min_leaf, parent_impurity,
                      left);
}

}  // namespace eafe::simd
