#include "ml/histogram_builder.h"

#include <algorithm>

#include "core/check.h"
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

/// Row adders of the three modes: each makes one row's adds to a totals
/// array in a fixed order.
struct ClassCountAdder {
  const int* classes;
  void operator()(double* totals, size_t row) const {
    totals[classes[row]] += 1.0;
  }
};

struct SquaresAdder {
  const double* y;
  void operator()(double* totals, size_t row) const {
    const double value = y[row];
    totals[0] += 1.0;
    totals[1] += value;
    totals[2] += value * value;
  }
};

struct GradientPairAdder {
  const double* g;
  const double* h;
  void operator()(double* totals, size_t row) const {
    totals[0] += 1.0;
    totals[1] += g[row];
    totals[2] += h[row];
  }
};

}  // namespace

Result<BinnedLabels> BinnedLabels::Create(data::TaskType task,
                                          const std::vector<double>& y) {
  BinnedLabels labels;
  if (task != data::TaskType::kClassification) return labels;
  labels.classes.resize(y.size());
  int max_class = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    // The check bounds the label, so the int cast is defined.
    EAFE_RETURN_NOT_OK(data::CheckClassId(y[i]));
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
    class_left_.resize(entry_width_);
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

template <typename Fn>
void HistogramBuilder::WithRowAdder(Fn&& fn) const {
  switch (mode_) {
    case Mode::kClassification:
      fn(ClassCountAdder{labels_->classes.data()});
      return;
    case Mode::kRegression:
      fn(SquaresAdder{y_->data()});
      return;
    case Mode::kGradientPair:
      fn(GradientPairAdder{gradients_->data(), hessians_->data()});
      return;
  }
}

void HistogramBuilder::BuildFeatures(std::span<const size_t> rows,
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
      simd::AccumulateClassCounts(codes.data(), rows.data(), rows.size(),
                                  labels_->classes.data(), entry_width_, h);
    } else if (mode_ == Mode::kRegression) {
      simd::AccumulateSquares(codes.data(), rows.data(), rows.size(),
                              y_->data(), h);
    } else {
      simd::AccumulateGradientPairs(codes.data(), rows.data(), rows.size(),
                                    gradients_->data(), hessians_->data(),
                                    h);
    }
  }
}

void HistogramBuilder::Totals(std::span<const size_t> rows,
                              Histogram* out) const {
  out->totals.assign(entry_width_, 0.0);
  double* totals = out->totals.data();
  WithRowAdder([&](auto add) {
    for (const size_t row : rows) add(totals, row);
  });
}

void HistogramBuilder::Build(std::span<const size_t> rows,
                             const std::vector<size_t>& features,
                             Histogram* out) const {
  out->data.resize(total_size_);
  // Wide builds accumulate feature-parallel: each block owns disjoint
  // slices of the flat array and walks `rows` in order, so the result
  // is independent of the partition. Nested calls (a tree training on a
  // pool worker) run inline via ParallelFor's own guard.
  if (features.size() >= kMinParallelFeatures &&
      rows.size() >= kMinParallelRows) {
    runtime::ParallelFor(
        runtime::GlobalPool(), features.size(), /*min_block=*/16,
        [&](size_t begin, size_t end) {
          BuildFeatures(rows, features, begin, end, out);
        });
  } else {
    BuildFeatures(rows, features, 0, features.size(), out);
  }
}

size_t HistogramBuilder::Partition(std::span<size_t> rows, size_t feature,
                                   uint8_t bin, std::span<size_t> staging,
                                   std::span<double> left_totals,
                                   std::span<double> right_totals) const {
  EAFE_CHECK_GE(staging.size(), rows.size());
  EAFE_CHECK(left_totals.size() == entry_width_ &&
             right_totals.size() == entry_width_);
  std::fill(left_totals.begin(), left_totals.end(), 0.0);
  std::fill(right_totals.begin(), right_totals.end(), 0.0);
  const uint8_t* codes = binner_->codes(feature).data();
  size_t num_left = 0;
  size_t num_right = 0;
  WithRowAdder([&](auto add) {
    // Branch-free: each row is written to both candidate slots and only
    // its side's cursor advances. rows[num_left] trails the read position,
    // so compacting the left rows in place never overwrites an unread row.
    for (const size_t row : rows) {
      const bool left = codes[row] <= bin;
      rows[num_left] = row;
      staging[num_right] = row;
      num_left += left ? 1 : 0;
      num_right += left ? 0 : 1;
      add(left ? left_totals.data() : right_totals.data(), row);
    }
  });
  std::copy_n(staging.begin(), num_right, rows.begin() + num_left);
  return num_left;
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
    size_t node_size, size_t min_samples_leaf, double parent_impurity) {
  EAFE_CHECK(mode_ != Mode::kGradientPair);
  Split best;
  const double n = static_cast<double>(node_size);
  const bool classification = mode_ == Mode::kClassification;
  const double min_leaf = static_cast<double>(min_samples_leaf);

  for (size_t f : features) {
    const size_t bins = binner_->num_bins(f);
    if (bins < 2) continue;
    const double* h = hist.data.data() + offsets_[f];
    // Both scans run in the simd/ kernels: empty bins duplicate the
    // previous boundary and are skipped, and the scan stops once the
    // right side drops below the leaf minimum, so a node's scan costs its
    // occupied bins, not the bin budget. The strict > keeps the earliest
    // feature on gain ties.
    const simd::SplitScan scan =
        classification
            ? simd::ClassSplitScan(h, bins, entry_width_, hist.totals.data(),
                                   n, min_leaf, parent_impurity,
                                   class_left_.data())
            : simd::RegressionSplitScan(h, bins, n, hist.totals[1],
                                        hist.totals[2], min_leaf,
                                        parent_impurity);
    if (scan.bin >= 0 && scan.gain > best.gain) {
      best.gain = scan.gain;
      best.feature = static_cast<int>(f);
      best.bin = scan.bin;
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
