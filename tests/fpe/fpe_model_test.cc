#include "fpe/fpe_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/rng.h"
#include "hashing/weighted_minhash.h"
#include "simd/simd.h"
#include "tests/fpe/fpe_test_util.h"
#include "tests/hashing/selection_memo_test_util.h"

namespace eafe::fpe {
namespace {

/// Synthetic labeled features with a clear distributional signature:
/// positives are heavy-tailed (lognormal), negatives are uniform. This is
/// the kind of shape difference the compressed-signature classifier can
/// exploit.
std::vector<LabeledFeature> MakeSeparableFeatures(size_t count,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledFeature> features;
  features.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    LabeledFeature f;
    f.label = i % 2 == 0 ? 1 : 0;
    const size_t n = 100 + rng.UniformInt(uint64_t{200});
    f.values.resize(n);
    for (double& v : f.values) {
      v = f.label == 1 ? std::exp(rng.Normal(0.0, 1.2))
                       : rng.Uniform(0.0, 1.0);
    }
    f.score_gain = f.label == 1 ? 0.05 : -0.01;
    features.push_back(std::move(f));
  }
  return features;
}

TEST(FpeModelTest, LearnsDistributionalSignature) {
  const auto train = MakeSeparableFeatures(120, 1);
  const auto validation = MakeSeparableFeatures(60, 2);
  FpeModel model;
  ASSERT_TRUE(model.Train(train).ok());
  EXPECT_TRUE(model.trained());
  const auto counts = model.Evaluate(validation).ValueOrDie();
  EXPECT_GT(counts.Recall(), 0.8);
  EXPECT_GT(counts.Precision(), 0.8);
}

TEST(FpeModelTest, PredictProbabilityInUnitInterval) {
  const auto train = MakeSeparableFeatures(80, 3);
  FpeModel model;
  ASSERT_TRUE(model.Train(train).ok());
  for (const auto& f : MakeSeparableFeatures(20, 4)) {
    const double p = model.PredictProbability(f.values).ValueOrDie();
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FpeModelTest, PredictLabelConsistentWithProbability) {
  const auto train = MakeSeparableFeatures(80, 5);
  FpeModel model;
  ASSERT_TRUE(model.Train(train).ok());
  for (const auto& f : MakeSeparableFeatures(30, 6)) {
    const double p = model.PredictProbability(f.values).ValueOrDie();
    const int label = model.PredictLabel(f.values).ValueOrDie();
    EXPECT_EQ(label, p >= 0.5 ? 1 : 0);
  }
}

TEST(FpeModelTest, HandlesVariableLengthInputs) {
  // The whole point of the compressor: features of any length share one
  // classifier.
  const auto train = MakeSeparableFeatures(100, 7);
  FpeModel model;
  ASSERT_TRUE(model.Train(train).ok());
  Rng rng(8);
  std::vector<double> tiny(12), huge(5000);
  for (double& v : tiny) v = rng.Uniform();
  for (double& v : huge) v = rng.Uniform();
  EXPECT_TRUE(model.PredictProbability(tiny).ok());
  EXPECT_TRUE(model.PredictProbability(huge).ok());
}

TEST(FpeModelTest, RebalancingHandlesSkewedLabels) {
  // 10% positives.
  Rng rng(11);
  std::vector<LabeledFeature> features;
  for (size_t i = 0; i < 150; ++i) {
    LabeledFeature f;
    f.label = i % 10 == 0 ? 1 : 0;
    f.values.resize(120);
    for (double& v : f.values) {
      v = f.label == 1 ? std::exp(rng.Normal(0.0, 1.2))
                       : rng.Uniform(0.0, 1.0);
    }
    features.push_back(std::move(f));
  }
  FpeModel model;
  ASSERT_TRUE(model.Train(features).ok());
  const auto counts = model.Evaluate(features).ValueOrDie();
  // Rebalancing should preserve recall on the minority positives.
  EXPECT_GT(counts.Recall(), 0.7);
}

TEST(FpeModelTest, TrainingRequiresBothClasses) {
  auto features = MakeSeparableFeatures(40, 12);
  for (auto& f : features) f.label = 1;
  FpeModel model;
  EXPECT_FALSE(model.Train(features).ok());
  for (auto& f : features) f.label = 0;
  EXPECT_FALSE(model.Train(features).ok());
}

TEST(FpeModelTest, TrainingRequiresEnoughFeatures) {
  FpeModel model;
  EXPECT_FALSE(model.Train(MakeSeparableFeatures(2, 13)).ok());
}

TEST(FpeModelTest, ErrorsBeforeTraining) {
  FpeModel model;
  EXPECT_FALSE(model.trained());
  EXPECT_FALSE(model.PredictProbability({1.0, 2.0}).ok());
  EXPECT_FALSE(model.Evaluate(MakeSeparableFeatures(4, 14)).ok());
}

TEST(FpeModelTest, DeterministicGivenSeed) {
  const auto train = MakeSeparableFeatures(60, 15);
  FpeModel a, b;
  ASSERT_TRUE(a.Train(train).ok());
  ASSERT_TRUE(b.Train(train).ok());
  const auto probe = MakeSeparableFeatures(10, 16);
  for (const auto& f : probe) {
    EXPECT_DOUBLE_EQ(a.PredictProbability(f.values).ValueOrDie(),
                     b.PredictProbability(f.values).ValueOrDie());
  }
}

TEST(FpeModelTest, VectorPredictMatchesTheHeadsFramePathBitForBit) {
  FpeModel model;
  ASSERT_TRUE(model.Train(MakeSeparableFeatures(80, 21)).ok());
  for (const auto& f : MakeSeparableFeatures(30, 22)) {
    const double vector_path = model.PredictProbability(f.values).ValueOrDie();
    EXPECT_TRUE(testing::SameBits(
        vector_path, testing::FramePathProbability(model, f.values)));
  }
}

TEST(FpeModelTest, OverflowingValueRangeIsAnError) {
  // Finite values whose range overflows a double: min-max normalization
  // would make NaN weights out of them.
  const std::vector<double> column = {-1e308, 1e308, 0.0, 5.0};
  FpeModel model;
  ASSERT_TRUE(model.Train(MakeSeparableFeatures(40, 23)).ok());
  EXPECT_EQ(model.compressor().Compress(column).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.PredictProbability(column).status().code(),
            StatusCode::kInvalidArgument);
  // The widest range that fits still compresses.
  const double big = std::numeric_limits<double>::max() / 2;
  EXPECT_TRUE(model.PredictProbability({-big, big, 0.0, 5.0}).ok());
}

uint64_t CwsArgmins() {
  return simd::DispatchCount(simd::Kernel::kCwsArgmin, simd::Level::kScalar) +
         simd::DispatchCount(simd::Kernel::kCwsArgmin, simd::Level::kAvx2);
}

TEST(FpeModelTest, TrainingCompressesEachLengthInOneRun) {
  // Twice as many lengths as the selection memo holds lists, ten features
  // each, in interleaved order. Compressed grouped by length, each length
  // runs the CCWS kernel on its first sight and reads its list after; in
  // the given order, eight lengths would hold every list and the other
  // eight would run the kernel on every feature.
  hashing::EmptySelectionMemo();
  constexpr size_t kLengths = 2 * hashing::kMaxCcwsLists;
  Rng rng(9);
  std::vector<LabeledFeature> features;
  for (size_t copy = 0; copy < 10; ++copy) {
    for (size_t i = 0; i < kLengths; ++i) {
      LabeledFeature f;
      f.label = static_cast<int>((copy + i) % 2);
      f.values.resize(400 + 11 * i);
      for (double& v : f.values) v = rng.Normal();
      features.push_back(std::move(f));
    }
  }
  FpeModel::Options options;
  options.compressor.dimension = 8;
  FpeModel model(options);
  simd::ResetDispatchCounts();
  ASSERT_TRUE(model.Train(features).ok());
  // One unlisted selection per length, and room for the rare slot whose
  // list runs out.
  EXPECT_LT(CwsArgmins(), 2 * kLengths * options.compressor.dimension);
}

}  // namespace
}  // namespace eafe::fpe
