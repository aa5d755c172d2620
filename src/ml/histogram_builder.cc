#include "ml/histogram_builder.h"

#include <algorithm>

#include "core/check.h"
#include "core/string_util.h"
#include "runtime/thread_pool.h"
#include "simd/histogram_kernels.h"

namespace eafe::ml {
namespace {

/// Gini impurity from per-class double counts (exact integers).
double GiniFromCounts(const double* counts, int num_classes, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    const double p = counts[c] / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

Result<BinnedLabels> BinnedLabels::Create(data::TaskType task,
                                          const std::vector<double>& y) {
  BinnedLabels labels;
  if (task != data::TaskType::kClassification) return labels;
  labels.classes.resize(y.size());
  int max_class = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    // Negated so NaN fails too; the bound keeps the int cast defined.
    if (!(y[i] >= 0.0 && y[i] < static_cast<double>(data::kMaxClasses))) {
      return Status::InvalidArgument(StrFormat(
          "classification labels must be class ids in [0, %u), got %.17g",
          data::kMaxClasses, y[i]));
    }
    labels.classes[i] = static_cast<int>(y[i]);
    max_class = std::max(max_class, labels.classes[i]);
  }
  labels.num_classes = max_class + 1;
  return labels;
}

HistogramBuilder::HistogramBuilder(const FeatureBinner* binner,
                                   data::TaskType task,
                                   const BinnedLabels* labels,
                                   const std::vector<double>* y)
    : binner_(binner),
      mode_(task == data::TaskType::kClassification ? Mode::kClassification
                                                    : Mode::kRegression),
      labels_(labels),
      y_(y) {
  EAFE_CHECK(binner_ != nullptr && binner_->fitted());
  EAFE_CHECK(labels_ != nullptr && y_ != nullptr);
  const bool classification = mode_ == Mode::kClassification;
  entry_width_ =
      classification ? static_cast<size_t>(labels_->num_classes) : 3;
  EAFE_CHECK_GE(entry_width_, 1u);
  if (classification) {
    EAFE_CHECK_EQ(labels_->classes.size(), y_->size());
  }
  InitOffsets();
}

HistogramBuilder::HistogramBuilder(const FeatureBinner* binner,
                                   const std::vector<double>* gradients,
                                   const std::vector<double>* hessians)
    : binner_(binner),
      mode_(Mode::kGradientPair),
      gradients_(gradients),
      hessians_(hessians) {
  EAFE_CHECK(binner_ != nullptr && binner_->fitted());
  EAFE_CHECK(gradients_ != nullptr && hessians_ != nullptr);
  EAFE_CHECK_EQ(gradients_->size(), hessians_->size());
  entry_width_ = 3;  // {count, sum_g, sum_h}.
  InitOffsets();
}

void HistogramBuilder::InitOffsets() {
  const size_t num_features = binner_->num_features();
  offsets_.resize(num_features);
  all_features_.resize(num_features);
  size_t offset = 0;
  for (size_t f = 0; f < num_features; ++f) {
    offsets_[f] = offset;
    all_features_[f] = f;
    offset += binner_->num_bins(f) * entry_width_;
  }
  total_size_ = offset;
}

void HistogramBuilder::BuildFeatures(const std::vector<size_t>& indices,
                                     const std::vector<size_t>& features,
                                     size_t begin, size_t end,
                                     Histogram* out) const {
  // Accumulation runs in the simd/ kernels: fixed row-order loops, so
  // every histogram is the same bits at every dispatch tier.
  for (size_t k = begin; k < end; ++k) {
    const size_t f = features[k];
    const size_t bins = binner_->num_bins(f);
    double* h = out->data.data() + offsets_[f];
    std::fill(h, h + bins * entry_width_, 0.0);
    if (bins < 2) continue;  // Constant column: no splits.
    const std::vector<uint8_t>& codes = binner_->codes(f);
    if (mode_ == Mode::kClassification) {
      simd::AccumulateClassCounts(codes.data(), indices.data(),
                                  indices.size(), labels_->classes.data(),
                                  entry_width_, h);
    } else if (mode_ == Mode::kRegression) {
      simd::AccumulateSquares(codes.data(), indices.data(), indices.size(),
                              y_->data(), h);
    } else {
      simd::AccumulateGradientPairs(codes.data(), indices.data(),
                                    indices.size(), gradients_->data(),
                                    hessians_->data(), h);
    }
  }
}

void HistogramBuilder::Totals(const std::vector<size_t>& indices,
                              Histogram* out) const {
  out->totals.assign(entry_width_, 0.0);
  if (mode_ == Mode::kClassification) {
    const std::vector<int>& classes = labels_->classes;
    for (size_t i : indices) out->totals[classes[i]] += 1.0;
  } else if (mode_ == Mode::kRegression) {
    for (size_t i : indices) {
      const double value = (*y_)[i];
      out->totals[0] += 1.0;
      out->totals[1] += value;
      out->totals[2] += value * value;
    }
  } else {
    for (size_t i : indices) {
      out->totals[0] += 1.0;
      out->totals[1] += (*gradients_)[i];
      out->totals[2] += (*hessians_)[i];
    }
  }
}

void HistogramBuilder::Build(const std::vector<size_t>& indices,
                             const std::vector<size_t>& features,
                             Histogram* out) const {
  out->data.resize(total_size_);
  // Wide builds accumulate feature-parallel: each block owns disjoint
  // slices of the flat array and walks `indices` in order, so the result
  // is independent of the partition. Nested calls (a tree training on a
  // pool worker) run inline via ParallelFor's own guard.
  if (features.size() >= kMinParallelFeatures &&
      indices.size() >= kMinParallelRows) {
    runtime::ParallelFor(
        runtime::GlobalPool(), features.size(), /*min_block=*/16,
        [&](size_t begin, size_t end) {
          BuildFeatures(indices, features, begin, end, out);
        });
  } else {
    BuildFeatures(indices, features, 0, features.size(), out);
  }
}

void HistogramBuilder::Subtract(const Histogram& parent,
                                const Histogram& sibling,
                                Histogram* out) const {
  EAFE_CHECK_EQ(parent.data.size(), sibling.data.size());
  if (out != &parent) {
    out->data.resize(parent.data.size());
    out->totals.resize(parent.totals.size());
  }
  simd::SubtractArrays(parent.data.data(), sibling.data.data(),
                       parent.data.size(), out->data.data());
  simd::SubtractArrays(parent.totals.data(), sibling.totals.data(),
                       parent.totals.size(), out->totals.data());
}

double HistogramBuilder::NodeImpurity(const Histogram& hist,
                                      size_t node_size) const {
  EAFE_CHECK(mode_ != Mode::kGradientPair);
  const double n = static_cast<double>(node_size);
  if (mode_ == Mode::kClassification) {
    return GiniFromCounts(hist.totals.data(), labels_->num_classes, n);
  }
  const double mean = hist.totals[1] / n;
  return hist.totals[2] / n - mean * mean;
}

HistogramBuilder::Split HistogramBuilder::FindBestSplit(
    const Histogram& hist, const std::vector<size_t>& features,
    size_t node_size, size_t min_samples_leaf,
    double parent_impurity) const {
  EAFE_CHECK(mode_ != Mode::kGradientPair);
  Split best;
  const double n = static_cast<double>(node_size);
  const bool classification = mode_ == Mode::kClassification;
  const double min_leaf = static_cast<double>(min_samples_leaf);

  std::vector<double> left(entry_width_);
  for (size_t f : features) {
    const size_t bins = binner_->num_bins(f);
    if (bins < 2) continue;
    const double* h = hist.data.data() + offsets_[f];
    if (!classification) {
      // The variance-reduction scan runs in the simd/ kernel; its
      // per-feature winner is bit-identical to the inline loop this
      // replaces (same empty-bin skips, min-leaf pruning, and expression
      // tree). The strict > keeps the earliest feature on gain ties,
      // matching the original single running compare.
      const simd::SplitScan scan = simd::RegressionSplitScan(
          h, bins, n, hist.totals[1], hist.totals[2], min_leaf,
          parent_impurity);
      if (scan.bin >= 0 && scan.gain > best.gain) {
        best.gain = scan.gain;
        best.feature = static_cast<int>(f);
        best.bin = scan.bin;
      }
      continue;
    }
    std::fill(left.begin(), left.end(), 0.0);
    double left_n = 0.0;
    // Boundary after bin b: left = bins [0, b], right = the rest. An
    // empty bin's boundary duplicates the previous candidate's partition
    // (identical stats, and strict > keeps the first of equal gains), so
    // it is skipped without evaluating; and since left_n only grows, the
    // scan stops once the right side is below the leaf minimum. Both cuts
    // leave the chosen split bit-identical while making the per-node cost
    // proportional to occupied bins, not the bin budget.
    for (size_t b = 0; b + 1 < bins; ++b) {
      const double* entry = h + b * entry_width_;
      double bin_n = 0.0;
      for (size_t c = 0; c < entry_width_; ++c) bin_n += entry[c];
      if (bin_n <= 0.0) continue;  // Empty bin: duplicate boundary.
      for (size_t c = 0; c < entry_width_; ++c) left[c] += entry[c];
      left_n += bin_n;
      const double right_n = n - left_n;
      if (right_n <= 0.0 || right_n < min_leaf) break;
      if (left_n < min_leaf) continue;

      const double wl = left_n / n;
      double gini_right = 0.0;
      {
        double sum_sq = 0.0;
        for (size_t c = 0; c < entry_width_; ++c) {
          const double p = (hist.totals[c] - left[c]) / right_n;
          sum_sq += p * p;
        }
        gini_right = 1.0 - sum_sq;
      }
      const double gini_left =
          GiniFromCounts(left.data(), labels_->num_classes, left_n);
      const double impurity = wl * gini_left + (1.0 - wl) * gini_right;
      const double gain = parent_impurity - impurity;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.bin = static_cast<int>(b);
      }
    }
  }
  return best;
}

HistogramBuilder::Split HistogramBuilder::FindBestSplitGradient(
    const Histogram& hist, size_t min_samples_leaf, double lambda) const {
  EAFE_CHECK(mode_ == Mode::kGradientPair);
  Split best;
  const double total_n = hist.totals[0];
  const double total_g = hist.totals[1];
  const double total_h = hist.totals[2];
  const double parent_term = total_g * total_g / (total_h + lambda);
  const double min_leaf = static_cast<double>(min_samples_leaf);

  const size_t num_features = binner_->num_features();
  for (size_t f = 0; f < num_features; ++f) {
    const size_t bins = binner_->num_bins(f);
    if (bins < 2) continue;
    const double* h = hist.data.data() + offsets_[f];
    // The second-order gain scan runs in the simd/ kernel with the same
    // shape as FindBestSplit's: empty bins duplicate the previous
    // boundary and are skipped; the scan stops once the right side drops
    // below the leaf minimum. Strict > keeps the earliest feature on
    // ties.
    const simd::SplitScan scan = simd::GradientSplitScan(
        h, bins, total_n, total_g, total_h, min_leaf, lambda, parent_term);
    if (scan.bin >= 0 && scan.gain > best.gain) {
      best.gain = scan.gain;
      best.feature = static_cast<int>(f);
      best.bin = scan.bin;
    }
  }
  return best;
}

}  // namespace eafe::ml
