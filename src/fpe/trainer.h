#ifndef EAFE_FPE_TRAINER_H_
#define EAFE_FPE_TRAINER_H_

#include <vector>

#include "core/status.h"
#include "fpe/fpe_model.h"
#include "fpe/labeling.h"
#include "ml/evaluator.h"

namespace eafe::fpe {

/// Options for Algorithm 1: training the FPE model and selecting the best
/// (MinHash scheme, signature dimension) by validation recall (Eq. 6).
struct FpeTrainingOptions {
  /// Candidate signature dimensions d (the vector d of Algorithm 1).
  std::vector<size_t> dimensions = {16, 32, 48, 64};
  /// Candidate hash families; empty means the four families: plain,
  /// ICWS, CCWS and PCWS (kLicws selects ICWS's rows, and the exact
  /// quantile is not a hash).
  std::vector<hashing::MinHashScheme> schemes;
  /// Score-gain threshold thre for labels (paper default 0.01). Training
  /// negatives within 0.015 below it are dropped from the training split
  /// (their labels are cross-validation coin flips); validation keeps
  /// every feature so recall stays honest.
  double threshold = 0.01;
  /// Fraction of labeled features held out for recall validation.
  double validation_fraction = 0.3;
  /// Downstream task configuration used for leave-one-out labeling.
  ml::EvaluatorOptions evaluator;
  uint64_t seed = 17;
  /// Additional pre-labeled features merged into the pool before the
  /// train/validation split. Used to augment the leave-one-out labels
  /// with generated-feature examples (afe::PretrainFpe), aligning the
  /// classifier's training distribution with its search-time inputs.
  std::vector<LabeledFeature> extra_labeled;
};

/// Validation metrics for one (scheme, dimension) candidate of the sweep.
struct FpeCandidateMetrics {
  hashing::MinHashScheme scheme = hashing::MinHashScheme::kCcws;
  size_t dimension = 0;
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
};

/// Output of Algorithm 1: the selected model plus the full sweep (used by
/// the Q6 hash-family study and Fig. 8's dimension sensitivity).
struct FpeTrainingResult {
  FpeModel model;
  FpeCandidateMetrics selected;
  std::vector<FpeCandidateMetrics> sweep;
  size_t num_labeled_features = 0;
  size_t num_positive_features = 0;
  /// Labeled features (with gains) retained for threshold re-sweeps.
  std::vector<LabeledFeature> training_features;
  std::vector<LabeledFeature> validation_features;
};

/// Algorithm 1 end to end: leave-one-out labeling over the public
/// datasets, a sweep over (scheme, d), and selection of the
/// recall-maximizing candidate subject to precision > 0 (Eq. 6). When
/// every candidate violates the constraints, the highest-recall candidate
/// is returned with a warning rather than failing.
Result<FpeTrainingResult> TrainFpeModel(
    const std::vector<data::Dataset>& public_datasets,
    const FpeTrainingOptions& options = {});

/// Re-trains a logistic model on pre-labeled features for one fixed
/// candidate — the inner loop of the sweep, exposed for the
/// hyperparameter benches.
Result<FpeCandidateMetrics> EvaluateCandidate(
    const std::vector<LabeledFeature>& train,
    const std::vector<LabeledFeature>& validation,
    hashing::MinHashScheme scheme, size_t dimension, uint64_t seed,
    FpeModel* model_out);

}  // namespace eafe::fpe

#endif  // EAFE_FPE_TRAINER_H_
