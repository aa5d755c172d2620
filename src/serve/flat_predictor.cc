#include "serve/flat_predictor.h"

#include <utility>

#include "ml/model.h"

namespace eafe::serve {

Result<FlatPredictor> FlatPredictor::Create(ml::FlatTreeModel model) {
  EAFE_RETURN_NOT_OK(model.Validate());
  FlatPredictor predictor;
  // Validate bounds every feature at kCutSlots - 1 cuts, so each pads.
  predictor.cuts_.resize(model.num_features);
  for (size_t f = 0; f < model.num_features; ++f) {
    const size_t begin = static_cast<size_t>(model.cut_offsets[f]);
    const size_t end = static_cast<size_t>(model.cut_offsets[f + 1]);
    ml::internal::PadCuts(model.cuts.data() + begin, end - begin,
                          &predictor.cuts_[f]);
  }
  predictor.ensemble_ = ml::FlatEnsemble(std::move(model));
  return predictor;
}

Status FlatPredictor::Encode(const data::DataFrame& x) {
  // A loaded container is a fitted model.
  EAFE_RETURN_NOT_OK(ml::CheckPredictInput(/*fitted=*/true, cuts_.size(), x));
  ml::EncodeRows(cuts_, x, &scratch_.codes);
  return Status::OK();
}

Result<std::vector<double>> FlatPredictor::Predict(const data::DataFrame& x) {
  EAFE_RETURN_NOT_OK(Encode(x));
  return ensemble_.Predict(x.num_rows(), &scratch_);
}

Result<std::vector<double>> FlatPredictor::PredictProba(
    const data::DataFrame& x) {
  EAFE_RETURN_NOT_OK(Encode(x));
  return ensemble_.PredictProba(x.num_rows(), &scratch_);
}

}  // namespace eafe::serve
