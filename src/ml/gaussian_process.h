#ifndef EAFE_ML_GAUSSIAN_PROCESS_H_
#define EAFE_ML_GAUSSIAN_PROCESS_H_

#include <vector>

#include "core/matrix.h"
#include "data/scaler.h"
#include "ml/model.h"

namespace eafe::ml {

/// Gaussian-process regression with a unit RBF kernel and observation
/// noise, solved exactly by Cholesky factorization. Table V's "GP"
/// downstream task for regression rows. Training is O(n^3): inputs larger
/// than `max_training_rows` are deterministically subsampled before
/// fitting, the standard sparsification shortcut for exact GPs at this
/// scale.
class GaussianProcessRegressor : public Model {
 public:
  struct Options {
    size_t max_training_rows = 1200;
  };

  GaussianProcessRegressor() : GaussianProcessRegressor(Options()) {}
  explicit GaussianProcessRegressor(const Options& options);

  Status Fit(const data::DataFrame& x, const std::vector<double>& y) override;
  Result<std::vector<double>> Predict(
      const data::DataFrame& x) const override;
  data::TaskType task() const override { return data::TaskType::kRegression; }

  bool fitted() const { return !alpha_.empty(); }

 private:
  Options options_;
  data::StandardScaler scaler_;
  Matrix train_x_;             ///< Standardized training inputs.
  std::vector<double> alpha_;  ///< K^-1 (y - mean).
  double label_mean_ = 0.0;
  size_t num_features_ = 0;
};

}  // namespace eafe::ml

#endif  // EAFE_ML_GAUSSIAN_PROCESS_H_
