#ifndef EAFE_ML_DECISION_TREE_H_
#define EAFE_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "data/dataframe.h"
#include "ml/flat_model.h"
#include "ml/histogram_builder.h"
#include "ml/model.h"

namespace eafe::ml {

/// CART decision tree for classification (Gini) and regression (variance
/// reduction), with numeric threshold splits. Supports per-split feature
/// subsampling so RandomForest can decorrelate its trees.
///
/// Fit and FitBinned split on histograms: the frame is binned once
/// (FeatureBinner, kMaxBins uint8 bins per column), each node accumulates
/// the histograms of only the features it samples and scans their bin
/// boundaries (O(F bins)), LightGBM-style. A tree can train through a
/// *shared* binner: each fit is a row-id view over the shared codes, so
/// bootstrap and fold selection never materialize a sub-frame. A
/// standalone fit writes its tree into the flat image (a forest of one)
/// and predicts fresh frames and binned rows through the one walk over
/// uint8 codes.
///
/// FitExact is the exact CART oracle the histogram search is tested
/// against: it sorts every candidate feature's values per node and scans
/// all midpoints (O(F n log n) per node). With lossless binning the two
/// agree bit for bit. An exact tree has no binner and no image; it
/// predicts through the raw-double walk (TraverseToLeaf), and its
/// PredictBinnedRows fails with FailedPrecondition.
class DecisionTree : public SharedBinnerModel {
 public:
  struct Options {
    data::TaskType task = data::TaskType::kClassification;
    size_t max_depth = 8;
    size_t min_samples_leaf = 2;
    /// Features considered per split; 0 means all.
    size_t max_features = 0;
    uint64_t seed = 1;
  };

  DecisionTree() : DecisionTree(Options()) {}
  explicit DecisionTree(const Options& options);

  /// Trains the exact oracle on the raw values of `x`.
  Status FitExact(const data::DataFrame& x, const std::vector<double>& y);

  Status FitBinned(std::shared_ptr<const FeatureBinner> binner,
                   const std::vector<double>& y,
                   const std::vector<size_t>& rows) override;
  data::TaskType task() const override { return options_.task; }

  /// Total impurity decrease attributed to each feature during training
  /// (unnormalized). Empty before a fit.
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  size_t node_count() const { return nodes_.size(); }

 protected:
  /// The image's walk after a binned fit, the raw-double walk after
  /// FitExact.
  std::vector<double> PredictFrame(const data::DataFrame& x,
                                   bool proba) const override;

 private:
  // A forest grows its trees through GrowBinned, which writes no image,
  // and writes every tree into its own image (AppendTo).
  friend class RandomForest;

  struct Node {
    int feature = -1;          ///< -1 marks a leaf.
    double threshold = 0.0;    ///< Exact: go left if x[feature] <= it.
    int split_bin = -1;        ///< Binned: go left if code <= split_bin.
    int left = -1;
    int right = -1;
    double value = 0.0;        ///< Leaf prediction (majority class / mean).
    double proba = 0.0;        ///< Leaf P(class == 1) for binary tasks.
  };

  struct SplitResult {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  /// Grows the tree of a checked binned view with the frame's class
  /// codes already converted (one BinnedLabels per forest, not per tree),
  /// writing no image. `rows` becomes the tree's row array, which the
  /// build partitions in place, so callers move it in.
  void GrowBinned(std::shared_ptr<const FeatureBinner> binner,
                  const std::vector<double>& y, std::vector<size_t> rows,
                  const BinnedLabels& labels);
  /// Appends the binned tree's nodes to `image` as one tree.
  void AppendTo(FlatEnsemble* image) const;

  int BuildNode(const data::DataFrame& x, const std::vector<double>& y,
                std::vector<size_t>& indices, size_t depth, Rng* rng);
  /// Grows the subtree of `rows`, a range of the tree's row array, which
  /// it partitions in place; `staging` is the fit's scratch row array (as
  /// long as the root's range). `scratch` is the fit's one histogram: on
  /// entry its totals are the node's, and every node refills the slices
  /// of the features it samples.
  int BuildNodeHistogram(HistogramBuilder& builder, std::span<size_t> rows,
                         std::span<size_t> staging, Histogram* scratch,
                         size_t depth, Rng* rng);
  /// A histogram node's leaf payload from its totals: the first class
  /// with the largest count and P(class 1), or the mean. Counts are exact
  /// integers and Σy was summed in the node's row order, so it equals
  /// MakeLeaf over the node's rows, bit for bit.
  Node LeafFromTotals(const std::vector<double>& totals, size_t n) const;
  SplitResult FindBestSplit(const data::DataFrame& x,
                            const std::vector<double>& y,
                            const std::vector<size_t>& indices, Rng* rng);
  /// Candidate features for one node (random subset when max_features is
  /// set, all features otherwise).
  std::vector<size_t> SampleFeatures(Rng* rng) const;
  /// Leaf payload of an exact (oracle) node from its rows.
  Node MakeLeaf(const std::vector<double>& y,
                const std::vector<size_t>& indices);
  /// The raw-double walk: routes `row` on x[feature] <= threshold. Exact
  /// fits carry no split bins, so it is the only walk they have: the
  /// reference walk of the exact oracle trees.
  size_t TraverseToLeaf(const data::DataFrame& x, size_t row) const;

  Options options_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  int num_classes_ = 0;
  /// Level of the deepest node of a histogram fit.
  uint32_t depth_ = 0;
  /// Children's totals of a histogram fit, two entry_width groups (left,
  /// right) per depth: a node at depth d writes its children's into pair
  /// d, which nothing overwrites while its left subtree grows.
  std::vector<double> child_totals_;
  /// Flat per-class count buffers of exact fits, reused across nodes.
  std::vector<size_t> leaf_counts_;
  std::vector<size_t> parent_counts_;
  std::vector<size_t> left_counts_;
  std::vector<size_t> right_counts_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_DECISION_TREE_H_
