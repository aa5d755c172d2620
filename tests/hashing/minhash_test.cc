#include "hashing/minhash.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace eafe::hashing {
namespace {

TEST(MixHashTest, DeterministicAndSensitive) {
  EXPECT_EQ(MixHash(1, 2, 3), MixHash(1, 2, 3));
  EXPECT_NE(MixHash(1, 2, 3), MixHash(1, 2, 4));
  EXPECT_NE(MixHash(1, 2, 3), MixHash(1, 3, 3));
  EXPECT_NE(MixHash(1, 2, 3), MixHash(2, 2, 3));
}

TEST(PlainMinHashTest, SelectsFromSupport) {
  // Support = indices with above-mean weight: {2, 3}.
  const std::vector<double> weights = {0.0, 0.0, 1.0, 1.0};
  const std::vector<size_t> selected = PlainMinHashSelect(weights, 32, 11);
  ASSERT_EQ(selected.size(), 32u);
  for (size_t s : selected) {
    EXPECT_TRUE(s == 2 || s == 3);
  }
}

TEST(PlainMinHashTest, AllZeroFallsBackToAllElements) {
  const std::vector<double> weights = {0.0, 0.0, 0.0};
  const std::vector<size_t> selected = PlainMinHashSelect(weights, 64, 3);
  for (size_t s : selected) EXPECT_LT(s, 3u);
}

TEST(PlainMinHashTest, DeterministicInSeed) {
  const std::vector<double> weights = {1, 5, 2, 8, 3};
  EXPECT_EQ(PlainMinHashSelect(weights, 16, 9),
            PlainMinHashSelect(weights, 16, 9));
  EXPECT_NE(PlainMinHashSelect(weights, 16, 9),
            PlainMinHashSelect(weights, 16, 10));
}

TEST(EstimateJaccardTest, AgreementFraction) {
  EXPECT_DOUBLE_EQ(EstimateJaccard({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(EstimateJaccard({1, 2, 3}, {1, 2, 4}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(EstimateJaccard({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(EstimateJaccard({}, {}), 0.0);
}

TEST(GeneralizedJaccardTest, KnownValues) {
  EXPECT_DOUBLE_EQ(GeneralizedJaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(GeneralizedJaccard({1, 0}, {0, 1}), 0.0);
  // min-sum = 1 + 1 = 2, max-sum = 2 + 3 = 5.
  EXPECT_DOUBLE_EQ(GeneralizedJaccard({1, 3}, {2, 1}), 0.4);
  EXPECT_DOUBLE_EQ(GeneralizedJaccard({0, 0}, {0, 0}), 1.0);
}

TEST(PlainMinHashTest, JaccardEstimateTracksSetOverlap) {
  // Two binary sets with known Jaccard 1/3 (overlap 20 of 60).
  const size_t n = 200;
  std::vector<double> a(n, 0.0), b(n, 0.0);
  for (size_t i = 0; i < 40; ++i) a[i] = 1.0;
  for (size_t i = 20; i < 60; ++i) b[i] = 1.0;
  const size_t slots = 512;
  const auto sel_a = PlainMinHashSelect(a, slots, 5);
  const auto sel_b = PlainMinHashSelect(b, slots, 5);
  EXPECT_NEAR(EstimateJaccard(sel_a, sel_b), 1.0 / 3.0, 0.08);
}

}  // namespace
}  // namespace eafe::hashing
