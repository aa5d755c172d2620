#ifndef EAFE_FPE_FPE_MODEL_H_
#define EAFE_FPE_FPE_MODEL_H_

#include <memory>
#include <vector>

#include "core/stats.h"
#include "core/status.h"
#include "fpe/labeling.h"
#include "hashing/sample_compressor.h"
#include "ml/linear.h"
#include "ml/random_forest.h"

namespace eafe::fpe {

/// The Feature Pre-Evaluation model C_D (Eq. 4): a fixed-size feature
/// representation feeding a binary classifier that predicts whether a
/// candidate feature is effective for the downstream task. Pre-trained
/// offline on public datasets and reused across target datasets — the
/// core device by which E-AFE avoids expensive downstream evaluation of
/// every generated feature.
///
/// The paper's representation is the weighted-MinHash signature
/// (kSignature). As an extension, the model can instead (or additionally)
/// consume the statistical meta-feature vector of the related work
/// (ExploreKit/LFE-style; data/meta_features.h) — `bench/
/// fpe_input_ablation` compares the three.
class FpeModel {
 public:
  /// The paper's head is logistic, the one kind a container stores; the
  /// forest serves `bench/fpe_input_ablation`.
  enum class ClassifierKind { kLogistic, kRandomForest };

  enum class InputRepresentation {
    kSignature,     ///< MinHash signature only (the paper's design).
    kMetaFeatures,  ///< Statistical meta-features only.
    kCombined,      ///< Signature concatenated with meta-features.
  };

  struct Options {
    hashing::CompressorOptions compressor;
    ClassifierKind classifier = ClassifierKind::kLogistic;
    InputRepresentation input = InputRepresentation::kSignature;
    uint64_t seed = 29;
  };

  FpeModel() : FpeModel(Options()) {}
  explicit FpeModel(const Options& options);

  /// Compresses each labeled feature and fits the binary classifier on
  /// classes oversampled to balance: feature-validness labels are heavily
  /// skewed toward 0, and the paper optimizes for recall.
  Status Train(const std::vector<LabeledFeature>& features);

  /// P(feature is effective) from the compressed representation.
  /// Requires a trained model.
  Result<double> PredictProbability(const std::vector<double>& values) const;

  /// 1 iff PredictProbability >= 0.5.
  Result<int> PredictLabel(const std::vector<double>& values) const;

  /// Precision/recall/F1 of the model on held-out labeled features
  /// (Eq. 5).
  Result<stats::BinaryCounts> Evaluate(
      const std::vector<LabeledFeature>& features) const;

  bool trained() const { return trained_; }
  const Options& options() const { return options_; }
  const hashing::SampleCompressor& compressor() const { return compressor_; }

  /// Width of the classifier's input vector under the current options.
  size_t InputDimension() const;

  // Persistence support for the model container (src/serve/model_store.h),
  // which serializes the logistic classifier.
  const ml::LogisticRegression& logistic_classifier() const {
    return logistic_;
  }
  /// Marks the model trained with a restored classifier. The options
  /// (including the compressor) must already describe the saved model.
  Status RestoreLogistic(ml::LogisticRegression classifier);

 private:
  /// The classifier input vector for one feature column.
  Result<std::vector<double>> BuildInput(
      const std::vector<double>& values) const;

  /// Builds the input frame: row r holds the input of
  /// features[rows[r]], each distinct feature compressed once.
  Result<data::DataFrame> SignatureFrame(
      const std::vector<LabeledFeature>& features,
      const std::vector<size_t>& rows) const;

  Options options_;
  hashing::SampleCompressor compressor_;
  ml::LogisticRegression logistic_;
  ml::RandomForest forest_;
  bool trained_ = false;
};

}  // namespace eafe::fpe

#endif  // EAFE_FPE_FPE_MODEL_H_
