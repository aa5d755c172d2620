#ifndef EAFE_DATA_SCALER_H_
#define EAFE_DATA_SCALER_H_

#include <vector>

#include "core/status.h"
#include "data/dataframe.h"

namespace eafe::data {

/// Per-column standardization to zero mean / unit variance. Fit on training
/// data, then applied to train and test alike (the usual leakage-safe
/// protocol for the linear/NN models).
class StandardScaler {
 public:
  /// Learns column means and stddevs. Constant columns get scale 1 so they
  /// map to 0 rather than NaN.
  Status Fit(const DataFrame& frame);

  /// Applies the learned transform; column count must match Fit.
  Result<DataFrame> Transform(const DataFrame& frame) const;

  /// The transform of one `value` of column `column`: the arithmetic
  /// Transform applies to every cell.
  double Scale(size_t column, double value) const {
    return (value - means_[column]) / scales_[column];
  }

  bool fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& scales() const { return scales_; }

  /// Restores a previously fitted state (persistence support). Sizes must
  /// match and scales must be strictly positive.
  Status Restore(std::vector<double> means, std::vector<double> scales);

 private:
  std::vector<double> means_;
  std::vector<double> scales_;
};

/// Per-column min-max scaling to [0, 1]; constant columns map to 0.
class MinMaxScaler {
 public:
  Status Fit(const DataFrame& frame);
  Result<DataFrame> Transform(const DataFrame& frame) const;

  bool fitted() const { return !mins_.empty(); }

 private:
  std::vector<double> mins_;
  std::vector<double> ranges_;
};

}  // namespace eafe::data

#endif  // EAFE_DATA_SCALER_H_
