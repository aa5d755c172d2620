#include "afe/agent.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eafe::afe {
namespace {

RnnAgent::Options SmallOptions() {
  RnnAgent::Options options;
  options.input_dim = 4;
  options.hidden_dim = 8;
  options.num_actions = 5;
  options.learning_rate = 0.05;
  options.seed = 7;
  return options;
}

std::vector<double> State(double x) { return {x, 0.5, -0.5, 1.0}; }

TEST(RnnAgentTest, ProbabilitiesAreADistribution) {
  RnnAgent agent(SmallOptions());
  const auto probs = agent.Step(State(0.1));
  ASSERT_EQ(probs.size(), 5u);
  double total = 0.0;
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RnnAgentTest, InitialPolicyNearUniform) {
  RnnAgent agent(SmallOptions());
  agent.ResetEpisode();
  const auto probs = agent.Step(State(0.0));
  for (double p : probs) EXPECT_NEAR(p, 0.2, 0.05);
}

TEST(RnnAgentTest, RecurrentStateChangesOutput) {
  RnnAgent agent(SmallOptions());
  agent.ResetEpisode();
  const auto first = agent.Step(State(0.3));
  const auto second = agent.Step(State(0.3));  // Same input, new h.
  EXPECT_NE(first, second);
  // After reset, the first step reproduces exactly.
  agent.ResetEpisode();
  EXPECT_EQ(agent.Step(State(0.3)), first);
}

TEST(RnnAgentTest, SampleActionFollowsDistribution) {
  RnnAgent agent(SmallOptions());
  Rng rng(3);
  const std::vector<double> probs = {0.0, 0.0, 1.0, 0.0, 0.0};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(agent.SampleAction(probs, &rng), 2u);
  }
}

TEST(RnnAgentTest, PositiveReturnReinforcesAction) {
  RnnAgent agent(SmallOptions());
  constexpr size_t kAction = 3;
  double p_before = 0.0;
  for (int iter = 0; iter < 50; ++iter) {
    agent.ResetEpisode();
    const auto probs = agent.Step(State(0.2));
    if (iter == 0) p_before = probs[kAction];
    agent.Update({kAction}, {1.0});
  }
  agent.ResetEpisode();
  const auto probs = agent.Step(State(0.2));
  EXPECT_GT(probs[kAction], p_before);
  EXPECT_GT(probs[kAction], 0.5);
}

TEST(RnnAgentTest, NegativeReturnSuppressesAction) {
  RnnAgent agent(SmallOptions());
  constexpr size_t kAction = 1;
  double p_before = 0.0;
  for (int iter = 0; iter < 50; ++iter) {
    agent.ResetEpisode();
    const auto probs = agent.Step(State(0.2));
    if (iter == 0) p_before = probs[kAction];
    agent.Update({kAction}, {-1.0});
  }
  agent.ResetEpisode();
  const auto probs = agent.Step(State(0.2));
  EXPECT_LT(probs[kAction], p_before);
}

TEST(RnnAgentTest, ZeroReturnKeepsPolicyRoughlyStable) {
  RnnAgent::Options options = SmallOptions();
  options.entropy_bonus = 0.0;
  options.l2 = 0.0;
  RnnAgent agent(options);
  agent.ResetEpisode();
  const auto before = agent.Step(State(0.2));
  agent.Update({0}, {0.0});
  agent.ResetEpisode();
  const auto after = agent.Step(State(0.2));
  for (size_t a = 0; a < before.size(); ++a) {
    EXPECT_NEAR(before[a], after[a], 1e-9);
  }
}

TEST(RnnAgentTest, MultiStepEpisodeUpdate) {
  RnnAgent agent(SmallOptions());
  agent.ResetEpisode();
  agent.Step(State(0.1));
  agent.Step(State(0.2));
  agent.Step(State(0.3));
  EXPECT_EQ(agent.num_recorded_steps(), 3u);
  agent.Update({0, 1, 2}, {0.5, -0.2, 0.1});
  EXPECT_EQ(agent.num_recorded_steps(), 0u);
}

TEST(RnnAgentTest, ResetEpisodeDiscardsRecordedSteps) {
  RnnAgent agent(SmallOptions());
  agent.Step(State(0.1));
  EXPECT_EQ(agent.num_recorded_steps(), 1u);
  agent.ResetEpisode();
  EXPECT_EQ(agent.num_recorded_steps(), 0u);
}

TEST(RnnAgentTest, DeterministicGivenSeed) {
  RnnAgent a(SmallOptions()), b(SmallOptions());
  EXPECT_EQ(a.parameters(), b.parameters());
  a.Step(State(0.4));
  b.Step(State(0.4));
  a.Update({2}, {0.7});
  b.Update({2}, {0.7});
  EXPECT_EQ(a.parameters(), b.parameters());
}

TEST(RnnAgentTest, EntropyBonusKeepsDistributionSofter) {
  RnnAgent::Options with = SmallOptions();
  with.entropy_bonus = 0.5;
  RnnAgent::Options without = SmallOptions();
  without.entropy_bonus = 0.0;
  RnnAgent a(with), b(without);
  for (int iter = 0; iter < 80; ++iter) {
    a.ResetEpisode();
    a.Step(State(0.2));
    a.Update({0}, {1.0});
    b.ResetEpisode();
    b.Step(State(0.2));
    b.Update({0}, {1.0});
  }
  a.ResetEpisode();
  b.ResetEpisode();
  const double pa = a.Step(State(0.2))[0];
  const double pb = b.Step(State(0.2))[0];
  EXPECT_LT(pa, pb);  // Entropy bonus resists collapse to determinism.
}

}  // namespace
}  // namespace eafe::afe
