#ifndef EAFE_ML_HISTOGRAM_BUILDER_H_
#define EAFE_ML_HISTOGRAM_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataframe.h"
#include "ml/feature_binner.h"

namespace eafe::ml {

/// Per-frame label codes shared across every tree trained on the frame:
/// classification labels are validated as class ids (data::CheckClassId)
/// and cast exactly once per fit, whether the tree splits on histograms or
/// exactly. Empty `classes` for regression. Every classifier takes its
/// class count from here.
struct BinnedLabels {
  std::vector<int> classes;  ///< Per-row class id (classification only).
  int num_classes = 0;       ///< 0 for regression.

  static Result<BinnedLabels> Create(data::TaskType task,
                                     const std::vector<double>& y);
};

/// Per-node label statistics over the features' bins, in one flat array
/// with a fixed slice per feature. Classification stores per-class counts
/// (num_classes doubles per bin); regression stores {count, sum_y, sum_y2}
/// (3 doubles per bin). Doubles keep integer counts exact while making the
/// booster's parent-minus-sibling derivation a single element-wise
/// subtraction. Only the slices of the features a Build listed hold the
/// node's statistics; the others keep whatever an earlier Build left.
struct Histogram {
  std::vector<double> data;    ///< Flat per-(feature, bin, stat) array.
  std::vector<double> totals;  ///< Node totals (one entry_width group).
};

/// Builds and searches per-node histograms over a fitted FeatureBinner.
/// Gains replicate the exact backend's definitions (Gini impurity /
/// variance reduction, child-weighted) so the two strategies agree
/// whenever the binning is lossless.
///
/// Row indices are ids into the binner's frame and may repeat (bootstrap
/// views); `y` and `labels` are indexed by the same ids. A tree keeps its
/// rows in one array that Partition splits in place, node by node, so
/// every node's rows are a contiguous range in their original order
/// (LightGBM's DataPartition layout). A forest node
/// builds only the features it samples; a build over many features runs
/// feature-parallel on the global runtime pool: per-feature ranges of the
/// flat array are disjoint and each feature accumulates its rows serially
/// in index order, so the result is bit-identical at any thread count
/// (nested calls — e.g. from per-tree forest fan-out — run inline).
///
/// A third mode accumulates gradient pairs ({count, Σg, Σh} per bin) for
/// gradient boosting: the same binner, flat layout, and feature-parallel
/// build serve the booster's per-round trees, which build every feature
/// and derive the larger child by subtraction, with FindBestSplitGradient
/// scanning the second-order (XGBoost) gain instead of an impurity
/// decrease.
class HistogramBuilder {
 public:
  /// `binner`, `labels`, and `y` must outlive the builder; `labels` holds
  /// the frame's shared class codes (BinnedLabels::Create).
  HistogramBuilder(const FeatureBinner* binner, data::TaskType task,
                   const BinnedLabels* labels, const std::vector<double>* y);

  /// Gradient-pair mode for gradient boosting: entries are {count, Σg,
  /// Σh}. `gradients` and `hessians` are frame-row-indexed and must
  /// outlive the builder; the booster refreshes their values between
  /// rounds and rebuilds histograms through the same instance.
  HistogramBuilder(const FeatureBinner* binner,
                   const std::vector<double>* gradients,
                   const std::vector<double>* hessians);

  /// Doubles per bin: num_classes (classification) or 3 (regression).
  size_t entry_width() const { return entry_width_; }

  /// Flat size of one histogram's data array (all features' bins).
  size_t total_size() const { return total_size_; }

  /// Every feature id, in order: the feature list of a full Build.
  const std::vector<size_t>& all_features() const { return all_features_; }

  /// Sets `out->totals` to the node totals of `rows`, accumulated in row
  /// order.
  void Totals(std::span<const size_t> rows, Histogram* out) const;

  /// Zeroes the slices of `features` (distinct ids) in `out->data` (sized
  /// to total_size() on first use) and accumulates `rows` into them.
  /// Every other slice, and `out->totals`, is left as it was.
  void Build(std::span<const size_t> rows,
             const std::vector<size_t>& features, Histogram* out) const;

  /// Splits `rows` in place on codes(feature) <= bin, stably: the left
  /// rows keep their order at the front and the right rows, staged
  /// through `staging` (at least rows.size() long), keep theirs after
  /// them. The same pass sets `left_totals` and `right_totals`
  /// (entry_width() doubles each) to each side's totals, making Totals'
  /// adds in Totals' row order, so each side's totals are the bits Totals
  /// would return for its rows. Returns the number of left rows.
  size_t Partition(std::span<size_t> rows, size_t feature, uint8_t bin,
                   std::span<size_t> staging, std::span<double> left_totals,
                   std::span<double> right_totals) const;

  /// The subtraction trick: out = parent - sibling, so only the smaller
  /// child of a split is accumulated from rows. Both histograms must hold
  /// every feature (a Build over all_features()). `out` may alias
  /// `parent`.
  void Subtract(const Histogram& parent, const Histogram& sibling,
                Histogram* out) const;

  /// Node impurity (Gini / variance) from a histogram's totals;
  /// `node_size` is the number of rows the histogram was built from.
  double NodeImpurity(const Histogram& hist, size_t node_size) const;

  struct Split {
    int feature = -1;
    int bin = -1;  ///< Go left if code <= bin.
    double gain = 0.0;
  };

  /// Best bin boundary over `features`. `parent_impurity` is
  /// NodeImpurity(hist, node_size); boundaries leaving fewer than
  /// `min_samples_leaf` rows on either side are skipped. Not const: a
  /// class scan at any width but 2 accumulates its left counts in the
  /// builder's own buffer, so one builder scans on one thread at a time.
  Split FindBestSplit(const Histogram& hist,
                      const std::vector<size_t>& features, size_t node_size,
                      size_t min_samples_leaf, double parent_impurity);

  /// Best boundary over every feature under the second-order gain
  ///   0.5 * (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda))
  /// (Chen & Guestrin 2016, eq. 7). Gradient-pair mode only; empty-bin
  /// skipping and min-leaf pruning mirror FindBestSplit. With lambda > 0
  /// a uniform-gradient (pure) node never yields positive gain, so the
  /// booster needs no separate purity check.
  Split FindBestSplitGradient(const Histogram& hist, size_t min_samples_leaf,
                              double lambda) const;

 private:
  enum class Mode { kClassification, kRegression, kGradientPair };
  /// Feature-count floor below which Build never fans out: narrow builds
  /// finish faster serially than one queue round-trip costs.
  static constexpr size_t kMinParallelFeatures = 64;
  /// Node-size floor for fanning out; deep small nodes stay serial.
  static constexpr size_t kMinParallelRows = 512;

  /// Build over features[begin, end).
  void BuildFeatures(std::span<const size_t> rows,
                     const std::vector<size_t>& features, size_t begin,
                     size_t end, Histogram* out) const;

  /// Calls fn(add) with the mode's row adder: add(totals, row) makes the
  /// row's adds to a totals array (a class count, {1, y, y²} or {1, g,
  /// h}). Totals and Partition share it, so their sums are the same bits.
  template <typename Fn>
  void WithRowAdder(Fn&& fn) const;

  void InitOffsets();

  const FeatureBinner* binner_;
  Mode mode_;
  const BinnedLabels* labels_ = nullptr;
  const std::vector<double>* y_ = nullptr;
  const std::vector<double>* gradients_ = nullptr;
  const std::vector<double>* hessians_ = nullptr;
  size_t entry_width_ = 0;
  std::vector<size_t> offsets_;   ///< Per-feature offset into data.
  std::vector<size_t> all_features_;
  size_t total_size_ = 0;
  /// ClassSplitScan's left counts at any class width but 2.
  std::vector<double> class_left_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_HISTOGRAM_BUILDER_H_
