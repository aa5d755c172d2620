#include "simd/histogram_kernels.h"

#include "simd/simd.h"

namespace eafe::simd {

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

}  // namespace eafe::simd
