#ifndef EAFE_AFE_REWARD_H_
#define EAFE_AFE_REWARD_H_

#include <vector>

namespace eafe::afe {

/// Parameters of the stage-1 FPE reward shaping (Eq. 8).
struct FpeRewardOptions {
  double base_score = 0.5;     ///< A^O: score of the original dataset.
  double delta_max = 0.05;     ///< Max score gain seen in pre-training.
  double delta_min = -0.05;    ///< Min score gain seen in pre-training.
  double threshold = 0.01;     ///< thre, the label threshold.
};

/// Eq. 8: maps the FPE output to a synthetic downstream score A_t^h.
/// `p_ineffective` follows the paper's convention that small p marks an
/// effective feature (P(effective) = 1 - p_ineffective):
///   p in [0, 0.5):  A^O + (0.5 - p)/0.5 * (delta_max - thre)  (bonus)
///   p in [0.5, 1]:  A^O + (0.5 - p)/0.5 * (thre - delta_min)  (penalty)
double FpeShapedScore(double p_ineffective, const FpeRewardOptions& options);

/// Discount factor gamma of Eq. 9/10, for every search's returns.
constexpr double kGamma = 0.99;
/// Lambda of the Eq. 10 return (E-AFE and E-AFE_D).
constexpr double kLambda = 0.8;

/// Discounted returns (Eq. 9/10's U_t): U_t = sum_{k>=t} gamma^{k-t} r_k.
/// (The paper's notation mixes past/future accumulation; we use the
/// standard forward-looking return, which Eq. 9's leading expression
/// r_t + gamma r_{t+1} + ... spells out.)
std::vector<double> DiscountedReturns(const std::vector<double>& rewards,
                                      double gamma);

/// Lambda-returns (Eq. 10's U_t^lambda) from per-step rewards: the
/// (1-lambda)-weighted exponential mixture of n-step discounted reward
/// sums, with the tail weight lambda^{T-t-1} on the full return. With no
/// learned value function the n-step targets are pure reward sums, so
/// lambda = 1 reproduces DiscountedReturns exactly.
std::vector<double> LambdaReturns(const std::vector<double>& rewards,
                                  double gamma, double lambda);

}  // namespace eafe::afe

#endif  // EAFE_AFE_REWARD_H_
