#ifndef EAFE_ML_FLAT_MODEL_H_
#define EAFE_ML_FLAT_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"
#include "simd/predict_kernels.h"

namespace eafe::ml {

/// How the flattened trees combine into one prediction.
enum class EnsembleKind : uint32_t {
  /// Majority vote (classification) / mean (regression) over leaf values
  /// — RandomForest semantics; a standalone DecisionTree is a forest of
  /// one.
  kForestVote = 1,
  /// base_score + learning_rate * sum of leaf weights, through a sigmoid
  /// for classification — GradientBoostedTrees semantics.
  kBoostedSum = 2,
};

/// Classification leaves name class ids below this bound, so a row's vote
/// counts stay a small dense array: the labels' own bound, which every
/// fit enforces.
inline constexpr uint32_t kMaxVoteClasses = data::kMaxClasses;

/// A tree ensemble flattened to structure-of-arrays node records: the
/// image every histogram fit writes its trees into, and the in-memory
/// form of the model container's payload sections (serve/model_store.h).
/// Each node field is one contiguous array over the concatenation of all
/// trees; tree t owns nodes [tree_offsets[t], tree_offsets[t+1]), and
/// child offsets are absolute indices into the concatenated arrays (no
/// pointers anywhere, so the arrays serialize as they are). Every child
/// sits after its parent.
///
/// Thresholds are not stored: a histogram split routes on
/// code <= split_bin, and a value v encodes to the number of cuts below
/// it (internal::CountCutsBelow), so code(v) <= b exactly when
/// v <= cut(b). An in-memory model encodes through its binner's cuts;
/// a saved model carries them in cut_offsets / cuts, which a fit's own
/// image leaves empty.
struct FlatTreeModel {
  EnsembleKind kind = EnsembleKind::kForestVote;
  data::TaskType task = data::TaskType::kClassification;
  uint32_t num_features = 0;
  /// Vote width a classification forest declares; 0 otherwise.
  uint32_t num_classes = 0;
  double base_score = 0.0;     ///< kBoostedSum only.
  double learning_rate = 0.0;  ///< kBoostedSum only.

  /// num_trees + 1 monotone offsets into the node arrays; front 0, back
  /// the total node count.
  std::vector<uint32_t> tree_offsets;
  std::vector<int32_t> feature;    ///< Split feature; -1 marks a leaf.
  std::vector<uint8_t> split_bin;  ///< Go left if code <= split_bin.
  std::vector<int32_t> left;       ///< Absolute child index; -1 for leaves.
  std::vector<int32_t> right;
  std::vector<double> value;  ///< Leaf class / mean / boost weight.
  std::vector<double> proba;  ///< Leaf P(class == 1) (kForestVote only).

  /// Binner thresholds: feature f owns the ascending cuts
  /// [cut_offsets[f], cut_offsets[f+1]).
  std::vector<uint64_t> cut_offsets;  ///< num_features + 1 offsets.
  std::vector<double> cuts;

  size_t num_trees() const {
    return tree_offsets.empty() ? 0 : tree_offsets.size() - 1;
  }
  size_t num_nodes() const { return feature.size(); }

  /// Structural validation of a saved model, run on every load: array
  /// lengths agree, offsets are monotone, split features and bins are in
  /// range, children stay inside the owning tree and strictly after
  /// their parent (traversal terminates on any input), leaves have no
  /// children, classification leaf values are class ids below both
  /// num_classes and kMaxVoteClasses, cuts ascend per feature, and no
  /// feature has more cuts than a uint8 code can count (kCutSlots - 1).
  /// A corrupted container fails here with a clean error instead of
  /// crashing or misrouting the predictor. Fits build their images from
  /// fitted nodes and skip it.
  Status Validate() const;
};

/// Caller-owned buffers of one FlatEnsemble predict. One fitted model is
/// predicted from every pool worker at once (a forest-backed FPE model
/// filters on each of them), so no buffer lives in the model: each call,
/// or each serve::FlatPredictor, owns its own.
struct WalkScratch {
  std::vector<uint8_t> codes;    ///< Row-major codes, num_features a row.
  std::vector<uint32_t> leaves;  ///< One tree's leaf node per row.
  std::vector<uint32_t> votes;   ///< Classification forests: row x class.
};

/// A FlatTreeModel packed for the one walk over codes (simd::WalkRows):
/// 16-byte node records with leaves as self-loops, each tree's depth
/// (every row steps exactly that far), and a classification forest's
/// vote width. Fits write each tree in as they finish it (AddNode /
/// SetSplit / EndTree), so the image is built once, straight from the
/// fitted nodes; serve::FlatPredictor packs a loaded container through
/// the constructor. Every walk is const and works in caller-owned
/// scratch.
///
/// Aggregation loops tree-outer, one tree's nodes hot while the rows
/// stream past, and each row still accumulates leaf payloads in tree
/// order: forest votes and means and boosted sums are bit-identical to
/// the row-at-a-time reference walks.
class FlatEnsemble {
 public:
  FlatEnsemble() = default;
  /// An image without trees, for a fit to write its trees into.
  FlatEnsemble(EnsembleKind kind, data::TaskType task, size_t num_features,
               int num_classes, double base_score = 0.0,
               double learning_rate = 0.0);
  /// Packs every tree of `model`, which must pass Validate.
  explicit FlatEnsemble(FlatTreeModel model);

  /// Appends a leaf to the tree being written; returns its absolute
  /// node index. SetSplit may later turn it into a split.
  uint32_t AddNode(double value, double proba);
  /// Makes `node` a split on `feature` with absolute children, which the
  /// tree must add before EndTree.
  void SetSplit(uint32_t node, int32_t feature, uint8_t split_bin,
                uint32_t left, uint32_t right);
  /// Closes the tree being written and packs it; `depth` is the level of
  /// its deepest node (0 for a lone leaf).
  void EndTree(uint32_t depth);

  const FlatTreeModel& model() const { return model_; }
  size_t num_trees() const { return model_.num_trees(); }

  /// Walks `n` row-major code rows (row r's codes at codes + r *
  /// num_features) through tree `t`; leaves[r] receives row r's leaf.
  void WalkTree(size_t t, const uint8_t* codes, size_t n,
                uint32_t* leaves) const;

  /// Predictions for the `n` rows whose codes scratch->codes holds
  /// (EncodeRows for a fresh frame, FeatureBinner::GatherRows for rows of
  /// the fitted frame): majority vote (lowest class id on ties) / mean
  /// for forests, thresholded sigmoid / raw score for boosters.
  std::vector<double> Predict(size_t n, WalkScratch* scratch) const;
  /// P(class == 1) per row: the mean leaf fraction for forests (the
  /// mean for regression), the sigmoid of the boosted sum for boosters
  /// (the raw score for regression).
  std::vector<double> PredictProba(size_t n, WalkScratch* scratch) const;

  /// The in-memory models' predicts, in scratch of their own: a fresh
  /// frame encodes through the fitted binner's padded cuts (EncodeRows;
  /// the caller checks its column count), rows of the binned frame gather
  /// their codes (FeatureBinner::GatherRows).
  std::vector<double> PredictFrame(const FeatureBinner& binner,
                                   const data::DataFrame& x,
                                   bool proba) const;
  Result<std::vector<double>> PredictRows(
      const FeatureBinner& binner, const std::vector<size_t>& rows) const;

 private:
  void PackTree(size_t t, uint32_t depth);
  /// Calls add(row, leaf) for every row of every tree, tree-outer.
  template <typename Add>
  void ForEachLeaf(size_t n, WalkScratch* scratch, const Add& add) const {
    scratch->leaves.resize(n);
    for (size_t t = 0; t < num_trees(); ++t) {
      WalkTree(t, scratch->codes.data(), n, scratch->leaves.data());
      for (size_t r = 0; r < n; ++r) add(r, scratch->leaves[r]);
    }
  }
  std::vector<double> BoostedSum(size_t n, WalkScratch* scratch) const;

  FlatTreeModel model_;
  std::vector<simd::PackedNode> nodes_;
  /// Steps that pin every row of tree t on a leaf (its depth).
  std::vector<uint32_t> depths_;
  /// Largest leaf class id + 1 of a classification forest. No other
  /// class can receive a vote, so the vote buffer needs no more columns,
  /// whatever num_classes a container declares.
  size_t vote_width_ = 0;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_FLAT_MODEL_H_
