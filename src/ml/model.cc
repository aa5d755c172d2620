#include "ml/model.h"

#include <numeric>
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
  return CheckPredictInput(fitted, num_features, x.num_columns());
}

Status CheckPredictInput(bool fitted, size_t num_features, size_t width) {
  if (!fitted) return Status::FailedPrecondition("model is not fitted");
  if (width != num_features) {
    return Status::InvalidArgument(StrFormat(
        "model fitted on %zu features, got %zu", num_features, width));
  }
  return Status::OK();
}

Status SharedBinnerModel::Fit(const data::DataFrame& x,
                              const std::vector<double>& y) {
  EAFE_RETURN_NOT_OK(CheckFitInput(x, y));
  EAFE_ASSIGN_OR_RETURN(std::shared_ptr<const FeatureBinner> binner,
                        BinFrame(x));
  std::vector<size_t> rows(y.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  return FitBinned(std::move(binner), y, rows);
}

Result<std::vector<double>> SharedBinnerModel::Predict(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  return PredictFrame(x, /*proba=*/false);
}

Result<std::vector<double>> SharedBinnerModel::PredictProba(
    const data::DataFrame& x) const {
  EAFE_RETURN_NOT_OK(CheckPredictInput(fitted(), num_features_, x));
  return PredictFrame(x, /*proba=*/true);
}

std::vector<double> SharedBinnerModel::PredictFrame(const data::DataFrame& x,
                                                    bool proba) const {
  return image_.PredictFrame(*binner_, x, proba);
}

Result<std::shared_ptr<const FeatureBinner>> SharedBinnerModel::BinFrame(
    const data::DataFrame& x) {
  auto binner = std::make_shared<FeatureBinner>();
  EAFE_RETURN_NOT_OK(binner->Fit(x));
  return std::shared_ptr<const FeatureBinner>(std::move(binner));
}

Result<std::vector<double>> SharedBinnerModel::PredictBinnedRows(
    const std::vector<size_t>& rows) const {
  EAFE_RETURN_NOT_OK(CheckImage());
  // Held-out fold rows are rows of the binned frame: gather their codes
  // once, then every tree walks the same row-major buffer.
  return image_.PredictRows(*binner_, rows);
}

Result<FlatTreeModel> SharedBinnerModel::Flatten() const {
  EAFE_RETURN_NOT_OK(CheckImage());
  FlatTreeModel flat = image_.model();
  flat.cut_offsets.assign(1, 0);
  for (size_t f = 0; f < binner_->num_features(); ++f) {
    for (size_t b = 0; b + 1 < binner_->num_bins(f); ++b) {
      flat.cuts.push_back(binner_->cut(f, b));
    }
    flat.cut_offsets.push_back(flat.cuts.size());
  }
  return flat;
}

Status SharedBinnerModel::CheckBinnedView(const FeatureBinner* binner,
                                          const std::vector<double>& y,
                                          const std::vector<size_t>& rows) {
  if (binner == nullptr || !binner->fitted()) {
    return Status::InvalidArgument("binner is null or not fitted");
  }
  if (binner->num_rows() != y.size() || y.empty()) {
    return Status::InvalidArgument(StrFormat(
        "binned rows (%zu) and labels (%zu) disagree or are empty",
        binner->num_rows(), y.size()));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("row view must be nonempty");
  }
  for (size_t row : rows) {
    if (row >= y.size()) {
      return Status::InvalidArgument(StrFormat(
          "row id %zu out of range (%zu frame rows)", row, y.size()));
    }
  }
  return Status::OK();
}

Status SharedBinnerModel::CheckImage() const {
  if (image_.num_trees() == 0) {
    return Status::FailedPrecondition("model has no fitted image");
  }
  return Status::OK();
}

}  // namespace eafe::ml
