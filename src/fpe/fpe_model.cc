#include "fpe/fpe_model.h"

#include <algorithm>

#include "core/check.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "data/meta_features.h"

namespace eafe::fpe {
namespace {

/// Training oversamples the minority class toward this positive fraction.
constexpr double kRebalancePositiveFraction = 0.5;
/// Epochs of the logistic classifier.
constexpr size_t kClassifierEpochs = 120;

/// Positions of `features`, stably ordered by column length. Compressing
/// in this order meets each length in one run, so the compressor's
/// per-length memo (DESIGN.md §9, "Selection memo") serves a corpus of
/// any number of lengths; the inputs do not depend on the order.
std::vector<size_t> LengthOrder(const std::vector<LabeledFeature>& features) {
  std::vector<size_t> order(features.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return features[a].values.size() < features[b].values.size();
  });
  return order;
}

}  // namespace

FpeModel::FpeModel(const Options& options)
    : options_(options), compressor_(options.compressor) {}

size_t FpeModel::InputDimension() const {
  const size_t signature = compressor_.signature_size();
  switch (options_.input) {
    case InputRepresentation::kSignature:
      return signature;
    case InputRepresentation::kMetaFeatures:
      return data::kNumMetaFeatures;
    case InputRepresentation::kCombined:
      return signature + data::kNumMetaFeatures;
  }
  return signature;
}

Result<std::vector<double>> FpeModel::BuildInput(
    const std::vector<double>& values) const {
  std::vector<double> input;
  if (options_.input != InputRepresentation::kMetaFeatures) {
    EAFE_ASSIGN_OR_RETURN(input, compressor_.Compress(values));
  }
  if (options_.input != InputRepresentation::kSignature) {
    EAFE_ASSIGN_OR_RETURN(std::vector<double> meta,
                          data::ComputeMetaFeatures(values));
    input.insert(input.end(), meta.begin(), meta.end());
  }
  EAFE_CHECK_EQ(input.size(), InputDimension());
  return input;
}

Result<data::DataFrame> FpeModel::SignatureFrame(
    const std::vector<LabeledFeature>& features,
    const std::vector<size_t>& rows) const {
  std::vector<std::vector<double>> inputs(features.size());
  for (size_t i : LengthOrder(features)) {
    EAFE_ASSIGN_OR_RETURN(inputs[i], BuildInput(features[i].values));
  }
  data::DataFrame frame;
  for (size_t j = 0; j < InputDimension(); ++j) {
    std::vector<double> column;
    column.reserve(rows.size());
    for (size_t i : rows) column.push_back(inputs[i][j]);
    EAFE_RETURN_NOT_OK(frame.AddColumn(
        data::Column(StrFormat("s%zu", j), std::move(column))));
  }
  return frame;
}

Status FpeModel::Train(const std::vector<LabeledFeature>& features) {
  if (features.size() < 4) {
    return Status::InvalidArgument(
        "FPE training needs at least 4 labeled features");
  }
  size_t positives = 0;
  for (const LabeledFeature& f : features) positives += f.label;
  if (positives == 0 || positives == features.size()) {
    return Status::InvalidArgument(
        "FPE training needs both positive and negative features");
  }

  // Minority-class oversampling: the validness labels are skewed toward 0
  // and the paper's objective is recall of positives (Eq. 6).
  std::vector<size_t> order(features.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const bool positives_minority =
      static_cast<double>(positives) <
      kRebalancePositiveFraction * static_cast<double>(features.size());
  const int minority_label = positives_minority ? 1 : 0;
  std::vector<size_t> minority_indices;
  for (size_t i = 0; i < features.size(); ++i) {
    if (features[i].label == minority_label) minority_indices.push_back(i);
  }
  const size_t majority = features.size() - minority_indices.size();
  // Duplicate minority examples until the classes are near balanced.
  Rng rng(options_.seed);
  while (!minority_indices.empty() && order.size() < 2 * majority) {
    order.push_back(minority_indices[rng.UniformInt(
        static_cast<uint64_t>(minority_indices.size()))]);
  }

  EAFE_ASSIGN_OR_RETURN(data::DataFrame x, SignatureFrame(features, order));
  std::vector<double> y;
  y.reserve(order.size());
  for (size_t i : order) y.push_back(static_cast<double>(features[i].label));

  switch (options_.classifier) {
    case ClassifierKind::kLogistic: {
      ml::LogisticRegression::Options lr;
      lr.epochs = kClassifierEpochs;
      lr.seed = options_.seed;
      logistic_ = ml::LogisticRegression(lr);
      EAFE_RETURN_NOT_OK(logistic_.Fit(x, y));
      break;
    }
    case ClassifierKind::kRandomForest: {
      ml::RandomForest::Options rf;
      rf.task = data::TaskType::kClassification;
      rf.num_trees = 20;
      rf.max_depth = 8;
      rf.seed = options_.seed;
      forest_ = ml::RandomForest(rf);
      EAFE_RETURN_NOT_OK(forest_.Fit(x, y));
      break;
    }
  }
  trained_ = true;
  return Status::OK();
}

Status FpeModel::RestoreLogistic(ml::LogisticRegression classifier) {
  if (options_.classifier != ClassifierKind::kLogistic) {
    return Status::FailedPrecondition(
        "RestoreLogistic requires the logistic classifier kind");
  }
  if (!classifier.fitted()) {
    return Status::InvalidArgument("restored classifier is not fitted");
  }
  const size_t expected = InputDimension();
  if (classifier.num_features() != expected) {
    return Status::InvalidArgument(
        "classifier input width disagrees with compressor signature size");
  }
  logistic_ = std::move(classifier);
  trained_ = true;
  return Status::OK();
}

Result<double> FpeModel::PredictProbability(
    const std::vector<double>& values) const {
  if (!trained_) return Status::FailedPrecondition("FPE model not trained");
  EAFE_ASSIGN_OR_RETURN(std::vector<double> input, BuildInput(values));
  if (options_.classifier == ClassifierKind::kLogistic) {
    return logistic_.PredictRowProba(input);
  }
  data::DataFrame frame;
  for (size_t j = 0; j < input.size(); ++j) {
    EAFE_RETURN_NOT_OK(frame.AddColumn(data::Column(
        StrFormat("s%zu", j), std::vector<double>{input[j]})));
  }
  EAFE_ASSIGN_OR_RETURN(const std::vector<double> proba,
                        forest_.PredictProba(frame));
  return proba[0];
}

Result<int> FpeModel::PredictLabel(const std::vector<double>& values) const {
  EAFE_ASSIGN_OR_RETURN(double p, PredictProbability(values));
  return p >= 0.5 ? 1 : 0;
}

Result<stats::BinaryCounts> FpeModel::Evaluate(
    const std::vector<LabeledFeature>& features) const {
  if (!trained_) return Status::FailedPrecondition("FPE model not trained");
  std::vector<int> truth(features.size());
  std::vector<int> predicted(features.size());
  for (size_t i : LengthOrder(features)) {
    EAFE_ASSIGN_OR_RETURN(predicted[i], PredictLabel(features[i].values));
    truth[i] = features[i].label;
  }
  return stats::CountBinary(truth, predicted);
}

}  // namespace eafe::fpe
