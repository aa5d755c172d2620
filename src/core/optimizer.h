#ifndef EAFE_CORE_OPTIMIZER_H_
#define EAFE_CORE_OPTIMIZER_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/check.h"

namespace eafe {

/// Adam optimizer state over a flat parameter vector (Kingma & Ba, 2014).
/// The paper trains both the RNN agents and the FPE classifier with Adam;
/// this single implementation serves the MLP, ResNet, linear models, and
/// policy networks.
class Adam {
 public:
  /// `weight_decay` is a decoupled L2 (AdamW-style).
  explicit Adam(double learning_rate, double weight_decay = 0.0)
      : learning_rate_(learning_rate), weight_decay_(weight_decay) {}

  /// Applies one update: params -= lr * m_hat / (sqrt(v_hat) + eps).
  /// `params` and `grads` must be the same size across calls.
  void Step(std::vector<double>* params, const std::vector<double>& grads) {
    EAFE_CHECK_EQ(params->size(), grads.size());
    if (m_.size() != params->size()) {
      m_.assign(params->size(), 0.0);
      v_.assign(params->size(), 0.0);
      t_ = 0;
    }
    ++t_;
    const double bias1 = 1.0 - std::pow(kBeta1, t_);
    const double bias2 = 1.0 - std::pow(kBeta2, t_);
    for (size_t i = 0; i < params->size(); ++i) {
      double g = grads[i];
      m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * g;
      v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * g * g;
      const double m_hat = m_[i] / bias1;
      const double v_hat = v_[i] / bias2;
      (*params)[i] -=
          learning_rate_ * (m_hat / (std::sqrt(v_hat) + kEpsilon) +
                            weight_decay_ * (*params)[i]);
    }
  }

  void Reset() {
    m_.clear();
    v_.clear();
    t_ = 0;
  }

  int64_t step_count() const { return t_; }

 private:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEpsilon = 1e-8;

  double learning_rate_;
  double weight_decay_;
  std::vector<double> m_;
  std::vector<double> v_;
  int64_t t_ = 0;
};

}  // namespace eafe

#endif  // EAFE_CORE_OPTIMIZER_H_
