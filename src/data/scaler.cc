#include "data/scaler.h"

#include "core/string_util.h"

namespace eafe::data {

Status StandardScaler::Fit(const DataFrame& frame) {
  if (frame.num_columns() == 0) {
    return Status::InvalidArgument("cannot fit scaler on empty frame");
  }
  means_.clear();
  scales_.clear();
  for (const Column& c : frame.columns()) {
    means_.push_back(c.Mean());
    const double sd = c.StdDev();
    scales_.push_back(sd > 0.0 ? sd : 1.0);
  }
  return Status::OK();
}

Status StandardScaler::Restore(std::vector<double> means,
                               std::vector<double> scales) {
  if (means.empty() || means.size() != scales.size()) {
    return Status::InvalidArgument(
        "scaler restore needs equal-size nonempty means/scales");
  }
  for (double s : scales) {
    if (s <= 0.0) {
      return Status::InvalidArgument("scaler scales must be positive");
    }
  }
  means_ = std::move(means);
  scales_ = std::move(scales);
  return Status::OK();
}

Result<DataFrame> StandardScaler::Transform(const DataFrame& frame) const {
  if (means_.empty()) {
    return Status::FailedPrecondition("scaler is not fitted");
  }
  if (frame.num_columns() != means_.size()) {
    return Status::InvalidArgument(
        StrFormat("frame has %zu columns, scaler fitted on %zu",
                  frame.num_columns(), means_.size()));
  }
  DataFrame out;
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    const Column& col = frame.column(c);
    std::vector<double> values(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      values[r] = Scale(c, col[r]);
    }
    EAFE_RETURN_NOT_OK(out.AddColumn(Column(col.name(), std::move(values))));
  }
  return out;
}

Status MinMaxScaler::Fit(const DataFrame& frame) {
  if (frame.num_columns() == 0) {
    return Status::InvalidArgument("cannot fit scaler on empty frame");
  }
  mins_.clear();
  ranges_.clear();
  for (const Column& c : frame.columns()) {
    const double lo = c.Min();
    const double hi = c.Max();
    mins_.push_back(lo);
    ranges_.push_back(hi > lo ? hi - lo : 1.0);
  }
  return Status::OK();
}

Result<DataFrame> MinMaxScaler::Transform(const DataFrame& frame) const {
  if (mins_.empty()) {
    return Status::FailedPrecondition("scaler is not fitted");
  }
  if (frame.num_columns() != mins_.size()) {
    return Status::InvalidArgument(
        StrFormat("frame has %zu columns, scaler fitted on %zu",
                  frame.num_columns(), mins_.size()));
  }
  DataFrame out;
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    const Column& col = frame.column(c);
    std::vector<double> values(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      values[r] = (col[r] - mins_[c]) / ranges_[c];
    }
    EAFE_RETURN_NOT_OK(out.AddColumn(Column(col.name(), std::move(values))));
  }
  return out;
}

}  // namespace eafe::data
