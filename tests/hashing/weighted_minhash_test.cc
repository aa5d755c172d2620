#include "hashing/weighted_minhash.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/rng.h"
#include "hashing/minhash.h"

namespace eafe::hashing {
namespace {

TEST(SchemeStringTest, RoundTrip) {
  std::vector<MinHashScheme> schemes = AllMinHashSchemes();
  schemes.push_back(MinHashScheme::kLicws);  // Not a backend of its own.
  for (MinHashScheme scheme : schemes) {
    const std::string name = MinHashSchemeToString(scheme);
    EXPECT_EQ(MinHashSchemeFromString(name).ValueOrDie(), scheme) << name;
  }
  EXPECT_EQ(MinHashSchemeFromString("0bit").ValueOrDie(),
            MinHashScheme::kLicws);
  EXPECT_FALSE(MinHashSchemeFromString("nope").ok());
}

TEST(SchemeListTest, ContainsAllSchemes) {
  // 4 hashing schemes + the exact-quantile baseline; kLicws selects
  // kIcws's rows (LicwsSelectsIcwsRows), so it is not a backend.
  EXPECT_EQ(AllMinHashSchemes().size(), 5u);
}

TEST(ExactQuantileTest, SelectsRanksInOrder) {
  // Weights 0..9: quantile selection picks evenly spaced ranks.
  std::vector<double> weights(10);
  for (size_t i = 0; i < 10; ++i) weights[i] = static_cast<double>(i);
  const auto selected = WeightedMinHashSelect(
      MinHashScheme::kExactQuantile, weights, 5, 0);
  ASSERT_EQ(selected.size(), 5u);
  // Slots map to ranks 1, 3, 5, 7, 9 of the sorted order == indices.
  EXPECT_EQ(selected[0], 1u);
  EXPECT_EQ(selected[2], 5u);
  EXPECT_EQ(selected[4], 9u);
  // Deterministic and seed-independent.
  EXPECT_EQ(selected, WeightedMinHashSelect(
      MinHashScheme::kExactQuantile, weights, 5, 999));
}

TEST(ExactQuantileTest, StringRoundTrip) {
  EXPECT_EQ(MinHashSchemeFromString("quantile").ValueOrDie(),
            MinHashScheme::kExactQuantile);
  EXPECT_EQ(MinHashSchemeToString(MinHashScheme::kExactQuantile),
            "quantile");
}

class CwsSchemeTest : public ::testing::TestWithParam<MinHashScheme> {};

TEST_P(CwsSchemeTest, DeterministicInSeedAndSlot) {
  const std::vector<double> weights = {0.2, 0.9, 0.1, 0.5, 0.7};
  const auto a = WeightedMinHashSelect(GetParam(), weights, 16, 77);
  EXPECT_EQ(a, WeightedMinHashSelect(GetParam(), weights, 16, 77));
  // Slot j's element depends on (seed, j) only, not on how many slots
  // are drawn.
  const auto prefix = WeightedMinHashSelect(GetParam(), weights, 5, 77);
  EXPECT_EQ(prefix, std::vector<size_t>(a.begin(), a.begin() + 5));
}

TEST_P(CwsSchemeTest, IgnoresZeroWeightElements) {
  const std::vector<double> weights = {0.0, 0.0, 1.0, 0.0};
  for (size_t selected : WeightedMinHashSelect(GetParam(), weights, 32, 5)) {
    EXPECT_EQ(selected, 2u);
  }
}

TEST_P(CwsSchemeTest, SelectionFrequencyTracksWeight) {
  // In ideal consistent weighted sampling, P(select k) = w_k / sum(w).
  // ICWS realizes this exactly; the cheaper variants (PCWS, CCWS) are
  // approximations with a mild bias, hence the loose tolerance.
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::map<size_t, size_t> counts;
  const size_t slots = 3000;
  const auto selected = WeightedMinHashSelect(GetParam(), weights, slots, 7);
  for (size_t s : selected) ++counts[s];
  EXPECT_NEAR(static_cast<double>(counts[0]) / slots, 0.1, 0.06);
  EXPECT_NEAR(static_cast<double>(counts[1]) / slots, 0.3, 0.08);
  EXPECT_NEAR(static_cast<double>(counts[2]) / slots, 0.6, 0.08);
}

TEST_P(CwsSchemeTest, SimilarWeightsGiveSimilarSelections) {
  // Consistency: the estimated similarity of (a, a) is 1 and of nearly
  // identical vectors is close to their generalized Jaccard.
  Rng rng(13);
  std::vector<double> a(100);
  for (double& v : a) v = rng.Uniform(0.1, 1.0);
  std::vector<double> b = a;
  for (double& v : b) v *= rng.Uniform(0.95, 1.05);

  const size_t slots = 256;
  const auto sel_a = WeightedMinHashSelect(GetParam(), a, slots, 3);
  const auto sel_a2 = WeightedMinHashSelect(GetParam(), a, slots, 3);
  EXPECT_DOUBLE_EQ(EstimateJaccard(sel_a, sel_a2), 1.0);

  const auto sel_b = WeightedMinHashSelect(GetParam(), b, slots, 3);
  const double truth = GeneralizedJaccard(a, b);
  EXPECT_GT(truth, 0.9);
  EXPECT_NEAR(EstimateJaccard(sel_a, sel_b), truth, 0.12);
}

TEST_P(CwsSchemeTest, DisjointSupportsNeverAgree) {
  std::vector<double> a(40, 0.0), b(40, 0.0);
  for (size_t i = 0; i < 20; ++i) a[i] = 1.0;
  for (size_t i = 20; i < 40; ++i) b[i] = 1.0;
  const auto sel_a = WeightedMinHashSelect(GetParam(), a, 128, 9);
  const auto sel_b = WeightedMinHashSelect(GetParam(), b, 128, 9);
  EXPECT_DOUBLE_EQ(EstimateJaccard(sel_a, sel_b), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    WeightedSchemes, CwsSchemeTest,
    ::testing::Values(MinHashScheme::kIcws, MinHashScheme::kCcws,
                      MinHashScheme::kPcws, MinHashScheme::kLicws),
    [](const ::testing::TestParamInfo<MinHashScheme>& param_info) {
      return MinHashSchemeToString(param_info.param);
    });

TEST(WeightedMinHashTest, EstimateTracksGeneralizedJaccardAtMidRange) {
  // Property check of Eq. 2 at a mid-similarity point for the paper's
  // default scheme (CCWS estimates are approximate but must correlate).
  Rng rng(21);
  std::vector<double> a(80), b(80);
  for (size_t i = 0; i < 80; ++i) {
    a[i] = rng.Uniform(0.0, 1.0);
    b[i] = i < 40 ? a[i] : rng.Uniform(0.0, 1.0);
  }
  const double truth = GeneralizedJaccard(a, b);
  const auto sel_a =
      WeightedMinHashSelect(MinHashScheme::kCcws, a, 1024, 31);
  const auto sel_b =
      WeightedMinHashSelect(MinHashScheme::kCcws, b, 1024, 31);
  EXPECT_NEAR(EstimateJaccard(sel_a, sel_b), truth, 0.15);
}

TEST(WeightedMinHashTest, AllZeroWeightsFallBack) {
  const std::vector<double> weights(10, 0.0);
  const auto selected =
      WeightedMinHashSelect(MinHashScheme::kIcws, weights, 32, 5);
  ASSERT_EQ(selected.size(), 32u);
  for (size_t s : selected) EXPECT_LT(s, 10u);
}

// 0-bit CWS drops only ICWS's quantization index, and a signature holds
// only rows, so the two schemes select the same rows.
TEST(WeightedMinHashTest, LicwsSelectsIcwsRows) {
  Rng rng(3);
  std::vector<double> weights(50);
  for (double& v : weights) v = rng.Uniform(0.0, 1.0);
  weights[7] = 0.0;
  EXPECT_EQ(WeightedMinHashSelect(MinHashScheme::kLicws, weights, 64, 3),
            WeightedMinHashSelect(MinHashScheme::kIcws, weights, 64, 3));
}

TEST(WeightedMinHashTest, SchemesDiffer) {
  Rng rng(33);
  std::vector<double> weights(60);
  for (double& v : weights) v = rng.Uniform(0.1, 1.0);
  const auto icws =
      WeightedMinHashSelect(MinHashScheme::kIcws, weights, 64, 5);
  const auto ccws =
      WeightedMinHashSelect(MinHashScheme::kCcws, weights, 64, 5);
  EXPECT_NE(icws, ccws);
}

}  // namespace
}  // namespace eafe::hashing
