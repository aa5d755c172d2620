#ifndef EAFE_SIMD_HISTOGRAM_KERNELS_H_
#define EAFE_SIMD_HISTOGRAM_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace eafe::simd {

/// Histogram hot-loop kernels. `codes` is the binner's full per-row
/// uint8 code column; `indices` selects the node's rows (ids into codes,
/// may repeat). All entries are accumulated INTO `out` — callers zero it
/// first.
///
/// Each kernel is one fixed-order loop with no tier branch, so its
/// result is the same bits at every dispatch level; dispatches are
/// counted at the scalar tier, the one that runs. There is no AVX2 tier
/// on purpose: one was faster on no benchmark workload, and its
/// gradient-pair merge changed the sums' bits (DESIGN.md §9).

/// Per-class counts: out[codes[row] * width + classes[row]] += 1.
/// Counts stay exact integers in doubles.
void AccumulateClassCounts(const uint8_t* codes, const size_t* indices,
                           size_t n, const int* classes, size_t width,
                           double* out);

/// Regression triples {count, Σy, Σy²} per bin, in row order.
void AccumulateSquares(const uint8_t* codes, const size_t* indices,
                       size_t n, const double* y, double* out);

/// Gradient pairs {count, Σg, Σh} per bin, in row order.
void AccumulateGradientPairs(const uint8_t* codes, const size_t* indices,
                             size_t n, const double* g, const double* h,
                             double* out);

/// out[i] = a[i] - b[i] (the parent-minus-sibling trick); out may alias
/// a.
void SubtractArrays(const double* a, const double* b, size_t n,
                    double* out);

/// Best boundary over one feature's bins; bin == -1 when no boundary
/// achieves a positive gain (mirroring the builder's `gain > 0` floor).
struct SplitScan {
  int bin = -1;
  double gain = 0.0;
};

/// Second-order (XGBoost) gain scan over one feature's {count, Σg, Σh}
/// bins. `h` points at the feature's bins*3 doubles; `parent_term` is
/// G²/(H+lambda). Ties keep the lowest boundary; empty bins are skipped
/// and the scan stops once the right side falls below `min_leaf`.
SplitScan GradientSplitScan(const double* h, size_t bins, double total_n,
                            double total_g, double total_h,
                            double min_leaf, double lambda,
                            double parent_term);

/// Variance-reduction gain scan over one feature's {count, Σy, Σy²}
/// bins (the regression arm of FindBestSplit), with GradientSplitScan's
/// tie, empty-bin and min-leaf rules. `n` is the node's row count as a
/// double.
SplitScan RegressionSplitScan(const double* h, size_t bins, double n,
                              double total_sum, double total_sum2,
                              double min_leaf, double parent_impurity);

}  // namespace eafe::simd

#endif  // EAFE_SIMD_HISTOGRAM_KERNELS_H_
