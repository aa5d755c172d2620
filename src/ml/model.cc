#include "ml/model.h"

#include <utility>

#include "core/string_util.h"

namespace eafe::ml {

Status CheckFitInput(const data::DataFrame& x, const std::vector<double>& y) {
  if (x.num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument("rows and labels disagree or are empty");
  }
  return Status::OK();
}

Status CheckPredictInput(bool fitted, size_t num_features,
                         const data::DataFrame& x) {
  if (!fitted) return Status::FailedPrecondition("model is not fitted");
  if (x.num_columns() != num_features) {
    return Status::InvalidArgument(
        StrFormat("model fitted on %zu features, got %zu", num_features,
                  x.num_columns()));
  }
  return Status::OK();
}

Result<std::shared_ptr<const FeatureBinner>> SharedBinnerModel::BinFrame(
    const data::DataFrame& x) const {
  const std::optional<FeatureBinner::Options> options = BinnerOptions();
  if (!options.has_value()) {
    return std::shared_ptr<const FeatureBinner>();  // Cannot share.
  }
  auto binner = std::make_shared<FeatureBinner>(*options);
  EAFE_RETURN_NOT_OK(binner->Fit(x));
  return std::shared_ptr<const FeatureBinner>(std::move(binner));
}

}  // namespace eafe::ml
