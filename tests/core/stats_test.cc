#include "core/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"

namespace eafe::stats {
namespace {

TEST(StatsTest, MeanVarianceStdDev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, EmptyAndSingletonEdgeCases) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(StatsTest, PearsonCorrelationExtremes) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  for (double& v : y) v = -v;
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, {1, 1, 1, 1, 1}), 0.0);
}

TEST(StatsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(StatsTest, RegularizedIncompleteBetaBounds) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.37), 0.37, 1e-10);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  const double lhs = RegularizedIncompleteBeta(2.5, 4.0, 0.3);
  const double rhs = 1.0 - RegularizedIncompleteBeta(4.0, 2.5, 0.7);
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

TEST(StatsTest, StudentTCdfMatchesTables) {
  // t(df=10), P(T <= 2.228) ~= 0.975.
  EXPECT_NEAR(StudentTCdf(2.228, 10), 0.975, 1e-3);
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-12);
  EXPECT_NEAR(StudentTCdf(-2.228, 10), 0.025, 1e-3);
}

TEST(PairedTTestTest, DetectsConsistentImprovement) {
  const std::vector<double> a = {0.70, 0.72, 0.68, 0.75, 0.71, 0.69};
  std::vector<double> b;
  for (double v : a) b.push_back(v + 0.02);
  const TestResult result = PairedTTest(a, b).ValueOrDie();
  EXPECT_LT(result.p_value, 0.01);
  EXPECT_GT(result.statistic, 0.0);
}

TEST(PairedTTestTest, NoDifferenceGivesLargeP) {
  const std::vector<double> a = {0.7, 0.8, 0.6, 0.9, 0.75};
  const TestResult result = PairedTTest(a, a).ValueOrDie();
  EXPECT_GE(result.p_value, 0.5);
}

TEST(PairedTTestTest, RejectsBadInput) {
  EXPECT_FALSE(PairedTTest({1.0}, {2.0}).ok());
  EXPECT_FALSE(PairedTTest({1.0, 2.0}, {1.0}).ok());
}

TEST(WilcoxonTest, DetectsConsistentImprovement) {
  Rng rng(3);
  std::vector<double> a(30), b(30);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Uniform();
    b[i] = a[i] + 0.05 + 0.01 * rng.Normal();
  }
  const TestResult result = WilcoxonSignedRank(a, b).ValueOrDie();
  EXPECT_LT(result.p_value, 0.001);
}

TEST(WilcoxonTest, SymmetricDifferencesGiveLargeP) {
  std::vector<double> a(40), b(40);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<double>(i);
    b[i] = a[i] + (i % 2 == 0 ? 0.5 : -0.5);
  }
  const TestResult result = WilcoxonSignedRank(a, b).ValueOrDie();
  EXPECT_GT(result.p_value, 0.3);
}

// Differences {+1, +1, -2, +3, +3, +3} rank 1.5, 1.5, 3, 5, 5, 5, so
// W+ = 18 against a mean of 10.5. The tie groups of 2 and 3 take
// (8 - 2 + 27 - 3) / 48 = 0.625 off the untied variance 22.75, so
// z = 7.5 / sqrt(22.125); the untied variance would give z = 1.57243.
TEST(WilcoxonTest, TiesShrinkTheVariance) {
  const std::vector<double> a(6, 0.0);
  const std::vector<double> b = {1.0, 1.0, -2.0, 3.0, 3.0, 3.0};
  const TestResult result = WilcoxonSignedRank(a, b).ValueOrDie();
  EXPECT_NEAR(result.statistic, 7.5 / std::sqrt(22.125), 1e-12);
  EXPECT_NEAR(result.statistic, 1.59448, 1e-5);
  EXPECT_NEAR(result.p_value, 0.05541, 1e-5);
}

TEST(WilcoxonTest, RejectsAllZeroDifferences) {
  const std::vector<double> a = {1, 2, 3};
  EXPECT_FALSE(WilcoxonSignedRank(a, a).ok());
}

TEST(BinaryCountsTest, MetricsFromCounts) {
  BinaryCounts counts;
  counts.tp = 8;
  counts.fp = 2;
  counts.fn = 4;
  counts.tn = 6;
  EXPECT_DOUBLE_EQ(counts.Precision(), 0.8);
  EXPECT_NEAR(counts.Recall(), 8.0 / 12.0, 1e-12);
  EXPECT_NEAR(counts.F1(), 2 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0),
              1e-12);
  EXPECT_DOUBLE_EQ(counts.Accuracy(), 0.7);
}

TEST(BinaryCountsTest, ZeroDenominators) {
  BinaryCounts counts;
  EXPECT_DOUBLE_EQ(counts.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(counts.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(counts.F1(), 0.0);
  EXPECT_DOUBLE_EQ(counts.Accuracy(), 0.0);
}

TEST(CountBinaryTest, TalliesConfusionMatrix) {
  const std::vector<int> truth = {1, 1, 0, 0, 1, 0};
  const std::vector<int> pred = {1, 0, 0, 1, 1, 0};
  const BinaryCounts counts = CountBinary(truth, pred);
  EXPECT_EQ(counts.tp, 2u);
  EXPECT_EQ(counts.fn, 1u);
  EXPECT_EQ(counts.fp, 1u);
  EXPECT_EQ(counts.tn, 2u);
}

}  // namespace
}  // namespace eafe::stats
