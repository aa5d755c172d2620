#include "fpe/trainer.h"

#include <algorithm>
#include <iterator>

#include "core/logging.h"
#include "core/rng.h"

namespace eafe::fpe {
namespace {

/// Training negatives whose gain lies within this margin below the label
/// threshold are dropped: their labels are cross-validation coin flips.
constexpr double kNegativeMargin = 0.015;

/// The sweep's hash families when the caller names none.
constexpr hashing::MinHashScheme kDefaultSchemes[] = {
    hashing::MinHashScheme::kPlain, hashing::MinHashScheme::kIcws,
    hashing::MinHashScheme::kCcws, hashing::MinHashScheme::kPcws};

}  // namespace

Result<FpeCandidateMetrics> EvaluateCandidate(
    const std::vector<LabeledFeature>& train,
    const std::vector<LabeledFeature>& validation,
    hashing::MinHashScheme scheme, size_t dimension, uint64_t seed,
    FpeModel* model_out) {
  FpeModel::Options options;
  options.compressor.scheme = scheme;
  options.compressor.dimension = dimension;
  options.compressor.seed = seed;
  options.seed = seed;
  FpeModel model(options);
  EAFE_RETURN_NOT_OK(model.Train(train));
  EAFE_ASSIGN_OR_RETURN(stats::BinaryCounts counts,
                        model.Evaluate(validation));
  FpeCandidateMetrics metrics;
  metrics.scheme = scheme;
  metrics.dimension = dimension;
  metrics.recall = counts.Recall();
  metrics.precision = counts.Precision();
  metrics.f1 = counts.F1();
  if (model_out != nullptr) *model_out = std::move(model);
  return metrics;
}

Result<FpeTrainingResult> TrainFpeModel(
    const std::vector<data::Dataset>& public_datasets,
    const FpeTrainingOptions& options) {
  if (public_datasets.empty()) {
    return Status::InvalidArgument("no public datasets provided");
  }
  if (options.validation_fraction <= 0.0 ||
      options.validation_fraction >= 1.0) {
    return Status::InvalidArgument("validation_fraction must be in (0, 1)");
  }

  // Step 1: leave-one-feature-out labeling (lines 3-16 of Algorithm 1).
  // Labels do not depend on the hash candidate, so they are computed once.
  ml::TaskEvaluator evaluator(options.evaluator);
  EAFE_ASSIGN_OR_RETURN(
      std::vector<LabeledFeature> labeled,
      LabelFeatureCollection(public_datasets, evaluator, options.threshold));
  labeled.insert(labeled.end(), options.extra_labeled.begin(),
                 options.extra_labeled.end());
  if (labeled.size() < 8) {
    return Status::InvalidArgument(
        "too few labeled features; provide more/larger public datasets");
  }

  // Step 2: split train/validation by feature.
  Rng rng(options.seed);
  std::vector<size_t> perm = rng.Permutation(labeled.size());
  const size_t validation_size = std::max<size_t>(
      2, static_cast<size_t>(options.validation_fraction *
                             static_cast<double>(labeled.size())));
  FpeTrainingResult result;
  for (size_t i = 0; i < perm.size(); ++i) {
    auto& bucket = i < validation_size ? result.validation_features
                                       : result.training_features;
    bucket.push_back(labeled[perm[i]]);
  }
  result.num_labeled_features = labeled.size();
  for (const LabeledFeature& f : labeled) {
    result.num_positive_features += static_cast<size_t>(f.label);
  }
  // Degenerate splits (a side without both classes) make training or
  // recall undefined; reshuffle deterministically until both sides mix.
  auto has_both = [](const std::vector<LabeledFeature>& set) {
    bool pos = false, neg = false;
    for (const LabeledFeature& f : set) {
      (f.label == 1 ? pos : neg) = true;
    }
    return pos && neg;
  };
  for (int attempt = 0; attempt < 16 &&
                        !(has_both(result.training_features) &&
                          has_both(result.validation_features));
       ++attempt) {
    result.training_features.clear();
    result.validation_features.clear();
    perm = rng.Permutation(labeled.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      auto& bucket = i < validation_size ? result.validation_features
                                         : result.training_features;
      bucket.push_back(labeled[perm[i]]);
    }
  }
  if (!has_both(result.training_features) ||
      !has_both(result.validation_features)) {
    return Status::FailedPrecondition(
        "could not split labeled features with both classes on each side; "
        "the label threshold may be too strict for these datasets");
  }

  // Training-set denoising: gains just below the threshold carry labels
  // dominated by CV fold noise; dropping that band sharpens the decision
  // boundary the classifier can learn, unless it would drop every
  // negative. Validation is left untouched. A NaN gain is in the band.
  const double cutoff = options.threshold - kNegativeMargin;
  const auto in_band = [cutoff](const LabeledFeature& f) {
    return f.label != 1 && !(f.score_gain < cutoff);
  };
  const auto kept_negative = [cutoff](const LabeledFeature& f) {
    return f.label != 1 && f.score_gain < cutoff;
  };
  std::vector<LabeledFeature>& training = result.training_features;
  if (std::any_of(training.begin(), training.end(), kept_negative)) {
    std::erase_if(training, in_band);
  }

  // Step 3: sweep (scheme, d) and keep the recall-maximizing candidate
  // subject to Eq. 6's constraints.
  std::vector<hashing::MinHashScheme> schemes = options.schemes;
  if (schemes.empty()) {
    schemes.assign(std::begin(kDefaultSchemes), std::end(kDefaultSchemes));
  }
  bool have_selected = false;
  FpeModel best_model;
  for (hashing::MinHashScheme scheme : schemes) {
    for (size_t dimension : options.dimensions) {
      FpeModel candidate_model;
      EAFE_ASSIGN_OR_RETURN(
          FpeCandidateMetrics metrics,
          EvaluateCandidate(result.training_features,
                            result.validation_features, scheme, dimension,
                            options.seed, &candidate_model));
      result.sweep.push_back(metrics);
      const bool feasible = metrics.precision > 0.0 && metrics.recall < 1.0;
      const bool better =
          !have_selected || metrics.recall > result.selected.recall ||
          (metrics.recall == result.selected.recall &&
           metrics.precision > result.selected.precision);
      // Prefer feasible candidates; among them maximize recall (Eq. 6).
      const bool selected_feasible =
          have_selected && result.selected.precision > 0.0 &&
          result.selected.recall < 1.0;
      if ((feasible && (!selected_feasible || better)) ||
          (!selected_feasible && better)) {
        result.selected = metrics;
        best_model = std::move(candidate_model);
        have_selected = true;
      }
    }
  }
  if (!have_selected) {
    return Status::Internal("hash-candidate sweep produced no model");
  }
  if (result.selected.precision == 0.0) {
    LogWarning(
        "FPE selection violates Eq. 6 constraint precision > 0; returning "
        "best-recall candidate anyway");
  }
  result.model = std::move(best_model);
  return result;
}

}  // namespace eafe::fpe
