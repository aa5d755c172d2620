#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hashing/weighted_minhash.h"
#include "runtime/metrics.h"
#include "simd/histogram_kernels.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"
#include "simd/predict_kernels.h"
#include "simd/simd.h"

// Dispatch-equivalence property tests for the src/simd/ kernel layer.
//
// Contract under test (DESIGN.md §9): every kernel returns the same bits
// at every tier. The MinHash argmins are the only kernels with an AVX2
// tier, so their tests compare it against the scalar reference; the
// single-tier kernels (histogram subtraction, node walk) are checked
// against naive loops. Sizes deliberately include lengths with n % 8 != 0
// (and < one vector) so remainder handling is covered.
//
// These tests run single-threaded on purpose: tier dispatch is
// process-global state (SetActiveLevel), and the suite flips it.

namespace eafe::simd {
namespace {

constexpr size_t kSizes[] = {1, 3, 7, 8, 9, 31, 100, 1003};
constexpr uint64_t kSeeds[] = {1, 42, 0xDEADBEEF};

bool HaveAvx2() { return LevelSupported(Level::kAvx2); }

#define EAFE_REQUIRE_AVX2()                                         \
  if (!HaveAvx2()) {                                                \
    GTEST_SKIP() << "AVX2 unsupported on this CPU; scalar tier is " \
                    "the only one to test";                         \
  }

// Restores the dispatch tier a test forced via SetActiveLevel.
class LevelGuard {
 public:
  LevelGuard() : saved_(ActiveLevel()) {}
  ~LevelGuard() { SetActiveLevel(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  Level saved_;
};

// Deterministic test data straight from the kernels' own mixer — no
// ambient entropy, reproducible across platforms.
double TestUniform(uint64_t tag, uint64_t i) {
  return Uniform01(/*seed=*/tag, /*slot=*/i, /*element=*/i * 7 + 1,
                   /*stream=*/9);
}

// Weights with ~1/4 exact zeros (zero weights must never win an argmin).
std::vector<double> MakeWeights(size_t n, uint64_t tag) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = TestUniform(tag, i);
    w[i] = u < 0.25 ? 0.0 : u * 10.0;
  }
  if (n > 0 && w[n / 2] == 0.0) w[n / 2] = 0.5;  // >= 1 positive entry.
  return w;
}

std::vector<double> LogsOf(const std::vector<double>& w) {
  std::vector<double> logs(w.size(), 0.0);
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] > 0.0) logs[i] = PortableLog(w[i]);
  }
  return logs;
}

TEST(SimdLevelTest, ParseAndNameRoundTrip) {
  Level level = Level::kAvx2;
  EXPECT_TRUE(ParseLevel("scalar", &level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("avx2", &level));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_FALSE(ParseLevel("avx512", &level));
  EXPECT_FALSE(ParseLevel("", &level));
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

TEST(SimdLevelTest, ScalarAlwaysSupportedAndForceable) {
  EXPECT_TRUE(LevelSupported(Level::kScalar));
  LevelGuard guard;
  SetActiveLevel(Level::kScalar);
  EXPECT_EQ(ActiveLevel(), Level::kScalar);
  if (HaveAvx2()) {
    SetActiveLevel(Level::kAvx2);
    EXPECT_EQ(ActiveLevel(), Level::kAvx2);
  }
}

TEST(SimdLevelTest, DispatchCountersTrackForcedTier) {
  LevelGuard guard;
  SetActiveLevel(Level::kScalar);
  ResetDispatchCounts();
  const std::vector<double> w = MakeWeights(64, 7);
  const std::vector<double> logs = LogsOf(w);
  (void)CwsArgmin(CwsKernelScheme::kIcws, w.data(), logs.data(), w.size(),
                  11, 0);
  EXPECT_EQ(DispatchCount(Kernel::kCwsArgmin, Level::kScalar), 1u);
  EXPECT_EQ(DispatchCount(Kernel::kCwsArgmin, Level::kAvx2), 0u);

  runtime::TextMetricGateway gateway;
  PublishDispatchCounts(&gateway);
  const std::string text = gateway.TextExposition();
  EXPECT_NE(text.find("eafe_simd_dispatch_cws_argmin_scalar 1"),
            std::string::npos)
      << text;
}

TEST(PortableLogTest, MatchesLibmAcrossMagnitudes) {
  const double xs[] = {1e-308, 4.9e-324,  // Subnormal territory.
                       1e-30,  0.001, 0.5,   0.9999999, 1.0,
                       1.0000001, 2.0,   std::exp(1.0), 1e10, 1e300};
  for (const double x : xs) {
    const double got = PortableLog(x);
    const double want = std::log(x);
    if (want == 0.0) {
      EXPECT_EQ(got, 0.0) << "x=" << x;
    } else {
      EXPECT_NEAR(got / want, 1.0, 1e-11) << "x=" << x;
    }
  }
  EXPECT_TRUE(std::isinf(PortableLog(0.0)));
  EXPECT_LT(PortableLog(0.0), 0.0);
  EXPECT_TRUE(std::isinf(PortableLog(-1.0)));
}

// Every CCWS tier against the full-scan oracle: the pruned scalar
// kernel, the pruned AVX2 kernel (when the CPU has it) and the AVX2
// dispatch entry. Returns the oracle's index.
size_t ExpectCcwsTiersMatchOracle(const std::vector<double>& w,
                                  uint64_t seed, uint64_t slot,
                                  const std::string& what) {
  const size_t n = w.size();
  const size_t oracle = internal::CwsArgminScalar(
      CwsKernelScheme::kCcws, w.data(), nullptr, n, seed, slot);
  EXPECT_EQ(internal::CcwsArgminPrunedScalar(w.data(), n, seed, slot),
            oracle)
      << "pruned scalar, " << what << " n=" << n << " seed=" << seed
      << " slot=" << slot;
  if (HaveAvx2()) {
    EXPECT_EQ(internal::CcwsArgminPrunedAvx2(w.data(), n, seed, slot),
              oracle)
        << "pruned avx2, " << what << " n=" << n << " seed=" << seed
        << " slot=" << slot;
    EXPECT_EQ(internal::CwsArgminAvx2(CwsKernelScheme::kCcws, w.data(),
                                      nullptr, n, seed, slot),
              oracle)
        << "avx2 dispatch, " << what << " n=" << n;
  }
  return oracle;
}

TEST(MinHashKernelTest, CwsArgminTiersAgreeBitwise) {
  for (const size_t n : kSizes) {
    for (const uint64_t seed : kSeeds) {
      const std::vector<double> w = MakeWeights(n, seed ^ n);
      const std::vector<double> logs = LogsOf(w);
      for (uint64_t slot = 0; slot < 4; ++slot) {
        const size_t ccws = ExpectCcwsTiersMatchOracle(w, seed, slot, "");
        ASSERT_LT(ccws, n);
        ASSERT_GT(w[ccws], 0.0) << "zero weight selected";
        if (!HaveAvx2()) continue;
        for (const CwsKernelScheme scheme :
             {CwsKernelScheme::kIcws, CwsKernelScheme::kPcws}) {
          const size_t scalar = internal::CwsArgminScalar(
              scheme, w.data(), logs.data(), n, seed, slot);
          const size_t avx2 = internal::CwsArgminAvx2(
              scheme, w.data(), logs.data(), n, seed, slot);
          ASSERT_EQ(scalar, avx2)
              << "scheme=" << static_cast<int>(scheme) << " n=" << n
              << " seed=" << seed << " slot=" << slot;
          ASSERT_LT(scalar, n);
          ASSERT_GT(w[scalar], 0.0) << "zero weight selected";
        }
      }
    }
  }
}

// Weight families that stress the CCWS prune bound: its span (max
// weight + 2) is loose for skewed and spiky columns, tight for constant
// ones, and 1e-300 weights push y + r2 down to the Beta(1,2) floor.
std::vector<double> FamilyWeights(const std::string& family, size_t n,
                                  uint64_t tag) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = TestUniform(tag, i);
    if (family == "minmax") {
      w[i] = u;  // Min-max normalized below.
    } else if (family == "skewed") {
      w[i] = std::exp(30.0 * u * u);
    } else if (family == "zeros60") {
      w[i] = u < 0.6 ? 0.0 : u;
    } else if (family == "ties") {
      w[i] = 0.25 * static_cast<double>(1 + static_cast<int>(u * 3.0));
    } else if (family == "constant") {
      w[i] = 3.5;
    } else if (family == "spiky") {
      w[i] = u < 0.02 ? 1.0 : 1e-12;
    } else {  // "tiny"
      w[i] = (0.5 + u) * 1e-300;
    }
  }
  if (family == "minmax" && n > 0) {
    const auto [lo, hi] = std::minmax_element(w.begin(), w.end());
    const double low = *lo;
    const double range = *hi - *lo;
    for (double& v : w) v = range > 0.0 ? (v - low) / range : 1.0;
  }
  if (family == "zeros60" && n > 0) w[n / 2] = 0.5;  // >= 1 positive.
  return w;
}

TEST(MinHashKernelTest, CcwsPrunedMatchesOracleAcrossWeightFamilies) {
  const char* const kFamilies[] = {"minmax", "skewed", "zeros60", "ties",
                                   "constant", "spiky", "tiny"};
  for (const char* family : kFamilies) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{5}, size_t{6}, size_t{7}, size_t{8000},
                           size_t{20000}}) {
      const uint64_t slots = n < 100 ? 16 : 3;
      for (const uint64_t seed : kSeeds) {
        const std::vector<double> w = FamilyWeights(family, n, seed + n);
        for (uint64_t slot = 0; slot < slots; ++slot) {
          const size_t k = ExpectCcwsTiersMatchOracle(w, seed, slot, family);
          ASSERT_LT(k, n) << family;
          ASSERT_GT(w[k], 0.0) << family;
        }
      }
    }
  }
}

// Inputs no caller produces (they fail ConsistentSample's weight
// check) must still leave the pruned kernels on the oracle's index:
// NaN and +inf weights, magnitudes where w / r2 overflows, subnormals,
// and negative weights, which never compete.
TEST(MinHashKernelTest, CcwsPrunedMatchesOracleOnNonFiniteAndExtremeWeights) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  const double sub = std::numeric_limits<double>::denorm_min();
  for (const size_t n : {size_t{7}, size_t{40}, size_t{1001}}) {
    for (const double special : {inf, nan, big, 1e300, sub, -1.0}) {
      for (const size_t at : {size_t{0}, n / 2, n - 1}) {
        std::vector<double> w = FamilyWeights("minmax", n, 0x5EC + n);
        w[at] = special;
        for (uint64_t slot = 0; slot < 4; ++slot) {
          ExpectCcwsTiersMatchOracle(w, 9, slot, "special");
        }
      }
    }
  }
  // An exact tie: every +inf weight samples -inf, and the first wins.
  std::vector<double> w = FamilyWeights("minmax", 40, 0x71E);
  w[5] = inf;
  w[30] = inf;
  for (uint64_t slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(ExpectCcwsTiersMatchOracle(w, 9, slot, "tie"), 5u);
  }
}

TEST(MinHashKernelTest, CcwsPruneThresholdIsConservative) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Nothing found yet, a -inf best, or a subnormal exp(best): prune
  // nothing (every u1 * u2 is >= 2^-106 > 0).
  EXPECT_EQ(internal::CcwsPruneThreshold(inf, 3.0), 0.0);
  EXPECT_EQ(internal::CcwsPruneThreshold(-inf, 3.0), 0.0);
  EXPECT_EQ(internal::CcwsPruneThreshold(-720.0, 3.0), 0.0);
  // An overflowed or NaN span never yields a usable threshold.
  EXPECT_EQ(internal::CcwsPruneThreshold(-1.0, inf), 0.0);
  EXPECT_FALSE(0.5 < internal::CcwsPruneThreshold(-1.0, nan));
  // A finite best: strictly below exp(-exp(best) * span).
  const double t = internal::CcwsPruneThreshold(-5.0, 3.0);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, std::exp(-std::exp(-5.0) * 3.0));
  EXPECT_TRUE(std::isnan(internal::CcwsMaxWeight(
      std::vector<double>{1.0, nan, 2.0}.data(), 3)));
  EXPECT_EQ(internal::CcwsMaxWeight(
                std::vector<double>{-4.0, 0.5, 2.0, 0.0}.data(), 4),
            2.0);
}

TEST(MinHashKernelTest, NoPositiveWeightReturnsN) {
  const std::vector<double> zeros(13, 0.0);
  const std::vector<double> logs(13, 0.0);
  for (const CwsKernelScheme scheme :
       {CwsKernelScheme::kIcws, CwsKernelScheme::kPcws,
        CwsKernelScheme::kCcws}) {
    EXPECT_EQ(internal::CwsArgminScalar(scheme, zeros.data(), logs.data(),
                                        zeros.size(), 3, 0),
              zeros.size());
    EXPECT_EQ(internal::CcwsArgminPrunedScalar(zeros.data(), zeros.size(),
                                               3, 0),
              zeros.size());
    if (HaveAvx2()) {
      EXPECT_EQ(internal::CwsArgminAvx2(scheme, zeros.data(), logs.data(),
                                        zeros.size(), 3, 0),
                zeros.size());
    }
  }
}

TEST(MinHashKernelTest, PlainHashArgminTiersAgree) {
  EAFE_REQUIRE_AVX2();
  for (const size_t n : kSizes) {
    std::vector<size_t> elements(n);
    for (size_t i = 0; i < n; ++i) elements[i] = i * 3 + 1;
    for (const uint64_t seed : kSeeds) {
      for (uint64_t slot = 0; slot < 4; ++slot) {
        EXPECT_EQ(
            internal::PlainHashArgminScalar(nullptr, n, seed, slot),
            internal::PlainHashArgminAvx2(nullptr, n, seed, slot))
            << "identity n=" << n << " seed=" << seed << " slot=" << slot;
        EXPECT_EQ(internal::PlainHashArgminScalar(elements.data(), n, seed,
                                                  slot),
                  internal::PlainHashArgminAvx2(elements.data(), n, seed,
                                                slot))
            << "mapped n=" << n << " seed=" << seed << " slot=" << slot;
      }
    }
  }
}

// End-to-end: the public selection API must return identical signatures
// at every forced tier, for every hash-based scheme.
TEST(MinHashKernelTest, WeightedMinHashSelectTierInvariant) {
  EAFE_REQUIRE_AVX2();
  LevelGuard guard;
  for (const hashing::MinHashScheme scheme :
       {hashing::MinHashScheme::kPlain, hashing::MinHashScheme::kIcws,
        hashing::MinHashScheme::kCcws, hashing::MinHashScheme::kPcws,
        hashing::MinHashScheme::kLicws}) {
    for (const size_t n : {size_t{5}, size_t{64}, size_t{257}}) {
      const std::vector<double> w = MakeWeights(n, 0xABC ^ n);
      SetActiveLevel(Level::kScalar);
      const std::vector<size_t> scalar =
          hashing::WeightedMinHashSelect(scheme, w, 32, 77);
      SetActiveLevel(Level::kAvx2);
      const std::vector<size_t> avx2 =
          hashing::WeightedMinHashSelect(scheme, w, 32, 77);
      EXPECT_EQ(scalar, avx2)
          << hashing::MinHashSchemeToString(scheme) << " n=" << n;
      // Quantization indices must agree too, not just the elements.
      if (scheme != hashing::MinHashScheme::kPlain) {
        for (uint64_t slot = 0; slot < 8; ++slot) {
          SetActiveLevel(Level::kScalar);
          const hashing::CwsSample a =
              hashing::ConsistentSample(scheme, w, slot, 77);
          SetActiveLevel(Level::kAvx2);
          const hashing::CwsSample b =
              hashing::ConsistentSample(scheme, w, slot, 77);
          EXPECT_EQ(a.element, b.element);
          EXPECT_EQ(a.quantization, b.quantization);
        }
      }
    }
  }
}

// --- Histogram kernels -----------------------------------------------

TEST(HistogramKernelTest, SubtractArraysMayAliasItsFirstInput) {
  for (const size_t n : kSizes) {
    std::vector<double> a(n), b(n), naive(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = TestUniform(0x61, i) * 100.0;
      b[i] = TestUniform(0x62, i) * 50.0;
      naive[i] = a[i] - b[i];
    }
    // The in-place parent-minus-sibling use: out == a.
    SubtractArrays(a.data(), b.data(), n, a.data());
    EXPECT_EQ(a, naive) << "n=" << n;
  }
}

// --- Flat-predictor walk ---------------------------------------------

TEST(PredictKernelTest, WalkRowsMatchesNaive) {
  // A depth-3 tree over 4 features: 7 internal nodes, 8 leaves packed as
  // self-loops, exactly how ml::FlatEnsemble lays trees out.
  const uint32_t steps = 3;
  const size_t stride = 4;
  std::vector<PackedNode> nodes(15);
  for (uint32_t i = 0; i < 7; ++i) {
    nodes[i].feature = static_cast<int32_t>(i % stride);
    nodes[i].split_bin = static_cast<uint8_t>(40 * (i % 3) + 30);
    nodes[i].left = 2 * i + 1;
    nodes[i].right = 2 * i + 2;
  }
  for (uint32_t i = 7; i < 15; ++i) {
    nodes[i].feature = 0;
    nodes[i].left = i;
    nodes[i].right = i;
  }
  for (const size_t n : kSizes) {
    std::vector<uint8_t> codes(n * stride);
    for (size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<uint8_t>(
          static_cast<size_t>(TestUniform(0x81, i) * 997.0) % 128);
    }
    // One row at a time, stopping at the leaf.
    std::vector<uint32_t> naive(n, 0), walked(n, 0);
    for (size_t r = 0; r < n; ++r) {
      uint32_t node = 0;
      while (nodes[node].left != node) {
        const PackedNode& nd = nodes[node];
        node = codes[r * stride + static_cast<size_t>(nd.feature)] <=
                       nd.split_bin
                   ? nd.left
                   : nd.right;
      }
      naive[r] = node;
    }
    WalkRows(nodes.data(), codes.data(), stride, 0, steps, n, walked.data());
    EXPECT_EQ(walked, naive) << "n=" << n;
  }
}

}  // namespace
}  // namespace eafe::simd
