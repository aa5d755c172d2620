#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

// Uniform01 maps hash bits to (0, 1]: never exactly 0, so the MinHash
// kernels may take its log.
TEST(Uniform01Test, InHalfOpenUnitInterval) {
  for (uint64_t i = 0; i < 1000; ++i) {
    const double u = Uniform01(42, i, i * 7 + 1, 3);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Uniform01Test, StreamsAreIndependent) {
  size_t equal = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    if (Uniform01(1, i, 5, 1) == Uniform01(1, i, 5, 2)) ++equal;
  }
  EXPECT_EQ(equal, 0u);
}

TEST(Uniform01Test, RoughlyUniform) {
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += Uniform01(7, static_cast<uint64_t>(i), 0, 0);
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
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

// Inputs no caller produces (they fail WeightedMinHashSelect's weight
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

/// The classification scan as FindBestSplit ran it inline before it
/// moved into ClassSplitScan: a heap vector of left counts, the left Gini
/// through a guarded helper, and the same empty-bin skip, min-leaf break
/// and strict > on gain.
SplitScan NaiveClassScan(const double* h, size_t bins, size_t width,
                         const double* totals, double n, double min_leaf,
                         double parent_impurity) {
  SplitScan best;
  std::vector<double> left(width, 0.0);
  double left_n = 0.0;
  for (size_t b = 0; b + 1 < bins; ++b) {
    const double* entry = h + b * width;
    double bin_n = 0.0;
    for (size_t c = 0; c < width; ++c) bin_n += entry[c];
    if (bin_n <= 0.0) continue;
    for (size_t c = 0; c < width; ++c) left[c] += entry[c];
    left_n += bin_n;
    const double right_n = n - left_n;
    if (right_n <= 0.0 || right_n < min_leaf) break;
    if (left_n < min_leaf) continue;
    const double wl = left_n / n;
    double gini_right = 0.0;
    {
      double sum_sq = 0.0;
      for (size_t c = 0; c < width; ++c) {
        const double p = (totals[c] - left[c]) / right_n;
        sum_sq += p * p;
      }
      gini_right = 1.0 - sum_sq;
    }
    double gini_left = 0.0;
    if (left_n > 0.0) {
      double sum_sq = 0.0;
      for (size_t c = 0; c < width; ++c) {
        const double p = left[c] / left_n;
        sum_sq += p * p;
      }
      gini_left = 1.0 - sum_sq;
    }
    const double impurity = wl * gini_left + (1.0 - wl) * gini_right;
    const double gain = parent_impurity - impurity;
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = static_cast<int>(b);
    }
  }
  return best;
}

/// Runs ClassSplitScan and the naive scan over one feature's counts and
/// expects the same bin and the same gain bits.
void ExpectClassScansAgree(const std::vector<double>& h, size_t width,
                           double min_leaf, const std::string& what) {
  const size_t bins = h.size() / width;
  std::vector<double> totals(width, 0.0);
  for (size_t b = 0; b < bins; ++b) {
    for (size_t c = 0; c < width; ++c) totals[c] += h[b * width + c];
  }
  double n = 0.0;
  for (const double count : totals) n += count;
  double sum_sq = 0.0;
  for (const double count : totals) sum_sq += (count / n) * (count / n);
  const double parent = 1.0 - sum_sq;
  std::vector<double> left(width);
  const SplitScan kernel = ClassSplitScan(h.data(), bins, width,
                                          totals.data(), n, min_leaf, parent,
                                          left.data());
  const SplitScan naive = NaiveClassScan(h.data(), bins, width,
                                         totals.data(), n, min_leaf, parent);
  EXPECT_EQ(kernel.bin, naive.bin) << what;
  EXPECT_EQ(std::bit_cast<uint64_t>(kernel.gain),
            std::bit_cast<uint64_t>(naive.gain))
      << what;
}

// The class split scan against the inline loop it replaced, on seeded
// integer count histograms: both instantiations (two classes in
// registers, any other width in the caller's buffer), runs of empty bins
// and several leaf minimums must give the same bin and gain bits.
TEST(HistogramKernelTest, ClassSplitScanMatchesInlineLoop) {
  for (const size_t width : {size_t{2}, size_t{3}, size_t{5}}) {
    for (const size_t bins : {size_t{2}, size_t{7}, size_t{40}, size_t{255}}) {
      for (const uint64_t seed : kSeeds) {
        std::vector<double> h(bins * width);
        for (size_t b = 0; b < bins; ++b) {
          // Every fourth run of three bins is empty.
          const bool empty = (b / 3) % 4 == 1;
          for (size_t c = 0; c < width; ++c) {
            h[b * width + c] =
                empty ? 0.0
                      : std::floor(TestUniform(seed + width, b * width + c) *
                                   (c == 0 ? 7.0 : 4.0));
          }
        }
        for (const double min_leaf : {1.0, 2.0, 5.0}) {
          ExpectClassScansAgree(h, width, min_leaf,
                                "width=" + std::to_string(width) +
                                    " bins=" + std::to_string(bins) +
                                    " seed=" + std::to_string(seed) +
                                    " min_leaf=" + std::to_string(min_leaf));
        }
      }
    }
  }
}

// Bins (2,0) (0,2) (0,2) (2,0) over 8 rows: the boundaries after bins 0
// and 2 mirror each other (weights 1/4 and 3/4 are exact, the impure side
// is (2,4) both times), so their gains are equal to the bit and the
// strict > keeps bin 0. Extra classes stay empty and change no sum.
TEST(HistogramKernelTest, ClassSplitScanKeepsTheFirstOfTiedBins) {
  for (const size_t width : {size_t{2}, size_t{3}, size_t{5}}) {
    std::vector<double> h(4 * width, 0.0);
    h[0 * width + 0] = 2.0;
    h[1 * width + 1] = 2.0;
    h[2 * width + 1] = 2.0;
    h[3 * width + 0] = 2.0;
    std::vector<double> totals(width, 0.0);
    totals[0] = 4.0;
    totals[1] = 4.0;
    std::vector<double> left(width);
    const SplitScan scan = ClassSplitScan(h.data(), 4, width, totals.data(),
                                          8.0, 1.0, 0.5, left.data());
    EXPECT_EQ(scan.bin, 0) << "width=" << width;
    EXPECT_GT(scan.gain, 0.0) << "width=" << width;
    ExpectClassScansAgree(h, width, 1.0, "tie width=" + std::to_string(width));
    // The mirrored boundary alone (bin 0 merged into bin 1's side) has
    // the same gain bits.
    std::vector<double> tail(h.begin() + static_cast<std::ptrdiff_t>(width),
                             h.end());
    tail[0] += 2.0;  // Bin 0's rows join bin 1: boundaries 1|2 and 2|3.
    const SplitScan mirrored = ClassSplitScan(
        tail.data(), 3, width, totals.data(), 8.0, 1.0, 0.5, left.data());
    EXPECT_EQ(mirrored.bin, 1) << "width=" << width;
    EXPECT_EQ(std::bit_cast<uint64_t>(mirrored.gain),
              std::bit_cast<uint64_t>(scan.gain))
        << "width=" << width;
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
