#include "hashing/sample_compressor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "hashing/minhash.h"

namespace eafe::hashing {
namespace {

std::vector<double> RandomFeature(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Normal(2.0, 3.0);
  return values;
}

TEST(SampleCompressorTest, FixedOutputDimensionForAnyInputSize) {
  CompressorOptions options;
  options.dimension = 48;
  SampleCompressor compressor(options);
  EXPECT_EQ(compressor.signature_size(), 96u);
  for (size_t n : {10u, 100u, 1000u, 7777u}) {
    const auto signature =
        compressor.Compress(RandomFeature(n, n)).ValueOrDie();
    EXPECT_EQ(signature.size(), 96u) << n;
  }
}

TEST(SampleCompressorTest, SignatureValuesAreNormalizedWeights) {
  SampleCompressor compressor;
  const auto signature =
      compressor.Compress(RandomFeature(500, 3)).ValueOrDie();
  for (double v : signature) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SampleCompressorTest, EachHalfIsSorted) {
  SampleCompressor compressor;
  const auto signature =
      compressor.Compress(RandomFeature(300, 5)).ValueOrDie();
  const auto half = signature.begin() + 48;
  EXPECT_TRUE(std::is_sorted(signature.begin(), half));
  EXPECT_TRUE(std::is_sorted(half, signature.end()));
}

// The first half holds the weights at the rows the scheme selects, as a
// sorted multiset.
TEST(SampleCompressorTest, FirstHalfHoldsTheWeightsAtTheSelectedRows) {
  CompressorOptions options;
  options.dimension = 64;
  SampleCompressor compressor(options);
  const auto values = RandomFeature(300, 7);
  const auto signature = compressor.Compress(values).ValueOrDie();
  const auto indices = compressor.SelectIndices(values).ValueOrDie();
  const auto weights = SampleCompressor::NormalizeWeights(values).ValueOrDie();
  std::vector<double> expected;
  for (size_t row : indices) expected.push_back(weights[row]);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(std::vector<double>(signature.begin(), signature.begin() + 64),
            expected);
}

// The uniform companion slots are plain min-wise hashing over row
// indices: slot j keeps the first row with the smallest
// MixHash(seed ^ 0xA5A5A5A5, j, row). The second half holds the weights
// at those rows, as a sorted multiset.
TEST(SampleCompressorTest, UniformSlotsPickFirstMinHashRow) {
  CompressorOptions options;
  options.dimension = 16;
  SampleCompressor compressor(options);
  for (size_t n : {1u, 5u, 300u, 8000u}) {
    const auto values = RandomFeature(n, 11);
    const auto signature = compressor.Compress(values).ValueOrDie();
    const auto weights =
        SampleCompressor::NormalizeWeights(values).ValueOrDie();
    ASSERT_EQ(signature.size(), 32u);
    std::vector<double> expected;
    for (size_t j = 0; j < 16; ++j) {
      size_t best = 0;
      for (size_t i = 1; i < n; ++i) {
        if (MixHash(options.seed ^ 0xA5A5A5A5ULL, j, i) <
            MixHash(options.seed ^ 0xA5A5A5A5ULL, j, best)) {
          best = i;
        }
      }
      expected.push_back(weights[best]);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(std::vector<double>(signature.begin() + 16, signature.end()),
              expected)
        << "n=" << n;
  }
}

TEST(SampleCompressorTest, DeterministicInSeed) {
  const auto values = RandomFeature(200, 9);
  SampleCompressor a;
  SampleCompressor b;
  EXPECT_EQ(a.Compress(values).ValueOrDie(),
            b.Compress(values).ValueOrDie());
  CompressorOptions other;
  other.seed = 999;
  SampleCompressor c(other);
  EXPECT_NE(a.Compress(values).ValueOrDie(),
            c.Compress(values).ValueOrDie());
}

TEST(SampleCompressorTest, NormalizeWeightsMapsToUnitInterval) {
  const auto weights =
      SampleCompressor::NormalizeWeights({-4.0, 0.0, 4.0}).ValueOrDie();
  EXPECT_DOUBLE_EQ(weights[0], 0.0);
  EXPECT_DOUBLE_EQ(weights[1], 0.5);
  EXPECT_DOUBLE_EQ(weights[2], 1.0);
}

// Empty input, a non-finite value and a range that overflows a double
// (min-max normalization would make NaN weights of it) are errors.
TEST(SampleCompressorTest, NormalizeWeightsRejectsWhatItCannotNormalize) {
  for (const std::vector<double>& values :
       {std::vector<double>{}, std::vector<double>{-1e308, 1e308},
        std::vector<double>{1.0, std::numeric_limits<double>::infinity()}}) {
    EXPECT_EQ(SampleCompressor::NormalizeWeights(values).status().code(),
              StatusCode::kInvalidArgument)
        << values.size();
  }
}

TEST(SampleCompressorTest, ConstantFeatureGetsUniformWeights) {
  const auto weights =
      SampleCompressor::NormalizeWeights({5.0, 5.0, 5.0}).ValueOrDie();
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 1.0);
  // And compresses without error.
  SampleCompressor compressor;
  EXPECT_TRUE(compressor.Compress({5.0, 5.0, 5.0, 5.0}).ok());
}

TEST(SampleCompressorTest, SimilarityPreservation) {
  // Eq. 2: |sim(D1, D2) - sim(compressed)| < epsilon. Scaled copies of the
  // same feature (identical after min-max normalization) must estimate
  // similarity ~1; independent features must estimate low similarity.
  SampleCompressor compressor;
  const auto base = RandomFeature(400, 11);
  std::vector<double> scaled(base.size());
  for (size_t i = 0; i < base.size(); ++i) scaled[i] = 2.0 * base[i] + 7.0;
  EXPECT_DOUBLE_EQ(
      compressor.EstimateSimilarity(base, scaled).ValueOrDie(), 1.0);

  const auto other = RandomFeature(400, 12);
  const auto weights_a = SampleCompressor::NormalizeWeights(base).ValueOrDie();
  const auto weights_b =
      SampleCompressor::NormalizeWeights(other).ValueOrDie();
  const double truth = GeneralizedJaccard(weights_a, weights_b);
  const double estimate =
      compressor.EstimateSimilarity(base, other).ValueOrDie();
  EXPECT_NEAR(estimate, truth, 0.2);
}

TEST(SampleCompressorTest, ErrorsOnBadInput) {
  SampleCompressor compressor;
  EXPECT_FALSE(compressor.Compress({}).ok());
  EXPECT_FALSE(
      compressor.Compress({1.0, std::numeric_limits<double>::quiet_NaN()})
          .ok());
  EXPECT_FALSE(compressor.EstimateSimilarity({1.0}, {1.0, 2.0}).ok());
}

TEST(SampleCompressorTest, AllSchemesCompress) {
  const auto values = RandomFeature(150, 17);
  std::vector<MinHashScheme> schemes = AllMinHashSchemes();
  schemes.push_back(MinHashScheme::kLicws);
  for (MinHashScheme scheme : schemes) {
    CompressorOptions options;
    options.scheme = scheme;
    options.dimension = 24;
    SampleCompressor compressor(options);
    const auto signature = compressor.Compress(values);
    ASSERT_TRUE(signature.ok()) << MinHashSchemeToString(scheme);
    EXPECT_EQ(signature->size(), 48u);
  }
}

}  // namespace
}  // namespace eafe::hashing
