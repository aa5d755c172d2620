#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eafe {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // f(x) = (x - 3)^2, gradient 2(x - 3).
  Adam adam(0.1);
  std::vector<double> params = {0.0};
  for (int i = 0; i < 500; ++i) {
    std::vector<double> grads = {2.0 * (params[0] - 3.0)};
    adam.Step(&params, grads);
  }
  EXPECT_NEAR(params[0], 3.0, 1e-3);
}

TEST(AdamTest, MinimizesMultiDimensional) {
  Adam adam(0.05);
  std::vector<double> params = {5.0, -5.0, 1.0};
  const std::vector<double> target = {1.0, 2.0, -3.0};
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> grads(3);
    for (size_t d = 0; d < 3; ++d) grads[d] = params[d] - target[d];
    adam.Step(&params, grads);
  }
  for (size_t d = 0; d < 3; ++d) EXPECT_NEAR(params[d], target[d], 1e-2);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Adam adam(0.01);
  std::vector<double> params = {0.0};
  adam.Step(&params, {123.0});
  EXPECT_NEAR(params[0], -0.01, 1e-6);
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  Adam adam(/*learning_rate=*/0.1, /*weight_decay=*/0.1);
  std::vector<double> params = {10.0};
  for (int i = 0; i < 200; ++i) {
    adam.Step(&params, {0.0});  // Zero gradient: decay only.
  }
  // Decay factor per step is (1 - lr * wd) = 0.99: expect ~10 * 0.99^200.
  EXPECT_NEAR(params[0], 10.0 * std::pow(0.99, 200), 0.05);
}

TEST(AdamTest, ResetClearsState) {
  Adam adam(0.01);
  std::vector<double> params = {1.0};
  adam.Step(&params, {1.0});
  EXPECT_EQ(adam.step_count(), 1);
  adam.Reset();
  EXPECT_EQ(adam.step_count(), 0);
}

TEST(AdamTest, StepCountAdvances) {
  Adam adam(0.01);
  std::vector<double> params = {0.0, 0.0};
  for (int i = 1; i <= 5; ++i) {
    adam.Step(&params, {0.1, -0.1});
    EXPECT_EQ(adam.step_count(), i);
  }
}

}  // namespace
}  // namespace eafe
