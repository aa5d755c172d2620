#include "ml/model.h"

#include <utility>

namespace eafe::ml {

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
