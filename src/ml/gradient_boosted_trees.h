#ifndef EAFE_ML_GRADIENT_BOOSTED_TREES_H_
#define EAFE_ML_GRADIENT_BOOSTED_TREES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"
#include "ml/histogram_builder.h"
#include "ml/model.h"

namespace eafe::ml {

/// Histogram gradient-boosted trees (Ke et al. 2017; leaf values and
/// regularized gain per Chen & Guestrin 2016). Binary classification
/// trains the logistic loss (g = p - y, h = p(1-p)); regression trains
/// the squared loss (g = F - y, h = 1). Every tree is a shallow
/// regression tree on gradient pairs with leaf weight -G/(H+lambda).
///
/// Training is histogram-only and rides the shared-binner machinery: a
/// whole booster fit bins the frame exactly once (FeatureBinner::Fit)
/// and every boosting round trains on row-id views of the shared uint8
/// codes — no SelectRows, no re-binning, same counter-verified
/// invariants as the forest. Under cross-validation the frame is binned
/// once per CV run and each fold's booster trains and scores by row id.
/// Each round's tree goes straight into the booster's flat image
/// (flat_model.h), its only tree storage: the fit gathers the view rows'
/// codes once and advances their scores through each new tree with the
/// same walk every predict uses.
///
/// Determinism: the only randomness is the optional per-round row
/// subsample, drawn serially for every round before any tree is built;
/// histogram builds fan out feature-parallel on wide frames but each
/// feature accumulates its rows in index order. Fits and predictions
/// are bit-identical across runs and thread counts.
class GradientBoostedTrees : public SharedBinnerModel {
 public:
  struct Options {
    data::TaskType task = data::TaskType::kClassification;
    size_t rounds = 40;          ///< Boosting rounds (trees).
    double learning_rate = 0.1;  ///< Shrinkage on each tree's leaf values.
    size_t max_depth = 3;        ///< Per-tree depth cap (shallow trees).
    size_t min_samples_leaf = 2;
    /// Fraction of the training view sampled (without replacement) per
    /// round; 1.0 trains every round on the full view.
    double subsample = 1.0;
    double lambda = 1.0;  ///< L2 on leaf weights (XGBoost lambda).
    uint64_t seed = 1;
  };

  GradientBoostedTrees() : GradientBoostedTrees(Options()) {}
  explicit GradientBoostedTrees(const Options& options);

  /// Unlike the forest's bootstrap views, `rows` must be distinct: the
  /// booster keeps per-row score state and a duplicated id would apply
  /// every tree's update twice to the same row.
  Status FitBinned(std::shared_ptr<const FeatureBinner> binner,
                   const std::vector<double>& y,
                   const std::vector<size_t>& rows) override;
  data::TaskType task() const override { return options_.task; }

  /// The score every row starts from. The image holds every round's
  /// tree with its unscaled leaf weights in `value`; prediction adds
  /// learning_rate times their sum to this.
  double base_score() const { return base_score_; }
  const Options& options() const { return options_; }

 private:
  Histogram AcquireHistogram();
  void ReleaseHistogram(Histogram&& hist);

  /// Recursively grows one round's tree into the image: partitions
  /// `rows`, a range of the round's row array, in place through
  /// `staging`, consumes `hist` (the node's histogram and totals), raises
  /// `deepest` to the levels it reaches, and returns the node's index.
  uint32_t BuildNode(const HistogramBuilder& builder, std::span<size_t> rows,
                     std::span<size_t> staging, Histogram&& hist,
                     uint32_t depth, uint32_t* deepest);

  Options options_;
  double base_score_ = 0.0;
  std::vector<Histogram> hist_pool_;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_GRADIENT_BOOSTED_TREES_H_
