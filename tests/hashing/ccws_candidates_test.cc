// CCWS candidate lists (DESIGN.md §9): a listed selection returns the
// full-scan oracle's row in every slot, and a listed length hashes no
// row outside its lists unless a list runs out. The release suite reruns
// this binary under EAFE_SIMD=scalar, so the fallback kernel is checked
// at both tiers.

#include "hashing/ccws_candidates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.h"
#include "hashing/sample_compressor.h"
#include "hashing/weighted_minhash.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"
#include "simd/simd.h"
#include "tests/hashing/selection_memo_test_util.h"

namespace eafe::hashing {
namespace {

constexpr size_t kDepth = CcwsCandidates::kDepth;
constexpr uint64_t kSeeds[] = {1, 42, 0xDEADBEEF};

size_t Oracle(const std::vector<double>& w, uint64_t seed, uint64_t slot) {
  return simd::internal::CwsArgminScalar(simd::CwsKernelScheme::kCcws,
                                         w.data(), nullptr, w.size(), seed,
                                         slot);
}

double MaxWeight(const std::vector<double>& w) {
  return *std::max_element(w.begin(), w.end());
}

/// DESIGN §9's seven weight families: min-max normalized, skewed to
/// e^30, 60% zeros, heavy ties, constant, spiky 1 vs 1e-12 and 1e-300
/// magnitudes.
std::vector<double> FamilyWeights(const std::string& family, size_t n,
                                  uint64_t tag) {
  Rng rng(tag * 7919 + n);
  std::vector<double> w(n);
  for (double& v : w) {
    const double u = rng.Uniform(0.0, 1.0);
    if (family == "minmax") {
      v = u;  // Min-max normalized below.
    } else if (family == "skewed") {
      v = std::exp(30.0 * u * u);
    } else if (family == "zeros60") {
      v = u < 0.6 ? 0.0 : u;
    } else if (family == "ties") {
      v = 0.25 * static_cast<double>(1 + static_cast<int>(u * 3.0));
    } else if (family == "constant") {
      v = 3.5;
    } else if (family == "spiky") {
      v = u < 0.02 ? 1.0 : 1e-12;
    } else {  // "tiny"
      v = (0.5 + u) * 1e-300;
    }
  }
  if (family == "minmax") {
    w = SampleCompressor::NormalizeWeights(w).ValueOrDie();
  }
  if (family == "zeros60") w[n / 2] = 0.5;  // >= 1 positive.
  return w;
}

/// The rows slot `slot` lists: the kDepth largest u1·u2, recomputed here
/// from the hashes rather than read from the list.
std::vector<size_t> ListedRows(size_t n, uint64_t seed, uint64_t slot) {
  std::vector<std::pair<double, size_t>> ranked(n);
  for (size_t k = 0; k < n; ++k) {
    ranked[k] = {simd::Uniform01(seed, slot, k, simd::kStreamC1) *
                     simd::Uniform01(seed, slot, k, simd::kStreamC2),
                 k};
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  std::vector<size_t> rows;
  for (size_t i = 0; i < std::min(n, kDepth); ++i) {
    rows.push_back(ranked[i].second);
  }
  return rows;
}

uint64_t CwsArgmins() {
  return simd::DispatchCount(simd::Kernel::kCwsArgmin, simd::Level::kScalar) +
         simd::DispatchCount(simd::Kernel::kCwsArgmin, simd::Level::kAvx2);
}

TEST(CcwsCandidatesTest, ListedSelectionMatchesOracleAcrossWeightFamilies) {
  const char* const kFamilies[] = {"minmax", "skewed", "zeros60", "ties",
                                   "constant", "spiky", "tiny"};
  std::vector<size_t> lengths = {1, 2, 3, 4, 5, 6, 7};
  for (size_t n : {kDepth - 1, kDepth, kDepth + 1, size_t{1500},
                   size_t{8000}}) {
    lengths.push_back(n);
  }
  EmptySelectionMemo();
  for (const size_t n : lengths) {
    const size_t slots = n < 2000 ? 24 : 8;
    for (const uint64_t seed : kSeeds) {
      const CcwsCandidates list(n, seed, slots);
      for (const char* family : kFamilies) {
        const std::vector<double> w = FamilyWeights(family, n, seed);
        // The first selection of (n, seed, slots) runs the kernel, the
        // second builds the memo's list and the third reads it (the
        // lists of earlier keys idle out, so a slot is free).
        std::vector<std::vector<size_t>> selections;
        for (int pass = 0; pass < 3; ++pass) {
          selections.push_back(
              WeightedMinHashSelect(MinHashScheme::kCcws, w, slots, seed));
        }
        for (uint64_t slot = 0; slot < slots; ++slot) {
          const size_t oracle = Oracle(w, seed, slot);
          ASSERT_LT(oracle, n);
          const size_t listed = list.Select(w.data(), MaxWeight(w), slot);
          EXPECT_TRUE(listed == oracle || listed == n)
              << family << " n=" << n << " seed=" << seed << " slot=" << slot
              << ": list chose " << listed << ", oracle " << oracle;
          if (n <= kDepth) {
            EXPECT_EQ(listed, oracle) << "a complete list never runs out";
          }
          for (const std::vector<size_t>& selected : selections) {
            EXPECT_EQ(selected[slot], oracle)
                << family << " n=" << n << " seed=" << seed
                << " slot=" << slot;
          }
        }
      }
    }
  }
}

TEST(CcwsCandidatesTest, ListOfZeroWeightRowsFallsBack) {
  constexpr size_t kRows = 1500;
  constexpr uint64_t kSeed = 42;
  std::vector<double> w = FamilyWeights("minmax", kRows, 5);
  for (size_t row : ListedRows(kRows, kSeed, 0)) w[row] = 0.0;
  const CcwsCandidates list(kRows, kSeed, 4);
  // Slot 0 lists only rows that do not compete: the list runs out before
  // the scan has a best, so nothing proves the unlisted rows lose.
  EXPECT_EQ(list.Select(w.data(), MaxWeight(w), 0), kRows);
  for (uint64_t slot = 0; slot < 4; ++slot) {
    const size_t listed = list.Select(w.data(), MaxWeight(w), slot);
    if (listed != kRows) {
      EXPECT_EQ(listed, Oracle(w, kSeed, slot));
    }
  }
  for (int pass = 0; pass < 3; ++pass) {
    const std::vector<size_t> selected =
        WeightedMinHashSelect(MinHashScheme::kCcws, w, 4, kSeed);
    for (uint64_t slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(selected[slot], Oracle(w, kSeed, slot)) << "slot " << slot;
    }
  }
}

TEST(CcwsCandidatesTest, TiedValuesGoToTheLowerRowInAnyListOrder) {
  // Every +inf weight samples -inf. Two of them, the lower row listed
  // after the higher one: the oracle keeps the lower row, and so must a
  // scan that meets them in list order.
  constexpr size_t kRows = 100;  // <= kDepth: the list holds every row.
  constexpr uint64_t kSeed = 7;
  for (uint64_t slot = 0; slot < 6; ++slot) {
    const std::vector<size_t> order = ListedRows(kRows, kSeed, slot);
    const size_t first = order[0];
    const auto later =
        std::find_if(order.begin() + 1, order.end(),
                     [&](size_t row) { return row < first; });
    if (later == order.end()) continue;  // Row 0 leads this slot's list.
    std::vector<double> w = FamilyWeights("minmax", kRows, slot);
    w[first] = std::numeric_limits<double>::infinity();
    w[*later] = std::numeric_limits<double>::infinity();
    ASSERT_EQ(Oracle(w, kSeed, slot), *later);
    const CcwsCandidates list(kRows, kSeed, slot + 1);
    EXPECT_EQ(list.Select(w.data(), MaxWeight(w), slot), *later)
        << "slot " << slot;
    for (int pass = 0; pass < 3; ++pass) {
      EXPECT_EQ(
          WeightedMinHashSelect(MinHashScheme::kCcws, w, slot + 1, kSeed)
              [slot],
          *later)
          << "slot " << slot;
    }
  }
}

std::vector<double> NormalColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Normal(1.0, 2.0);
  return values;
}

TEST(CcwsCandidatesTest, SecondCompressOfALengthRunsNoKernel) {
  const CompressorOptions options;
  const SampleCompressor compressor(options);
  constexpr size_t kRows = 2741;  // A length no other test compresses.
  EmptySelectionMemo();
  simd::ResetDispatchCounts();
  ASSERT_TRUE(compressor.Compress(NormalColumn(kRows, 1)).ok());
  // The first Compress of a length has no list: every slot runs the
  // full kernel.
  EXPECT_EQ(CwsArgmins(), options.dimension);
  simd::ResetDispatchCounts();
  ASSERT_TRUE(compressor.Compress(NormalColumn(kRows, 2)).ok());
  EXPECT_EQ(CwsArgmins(), 0u);
  // A column whose slot-0 list holds only its minimum (weight 0) sends
  // that slot to the kernel.
  std::vector<double> values = NormalColumn(kRows, 3);
  const double low = *std::min_element(values.begin(), values.end()) - 1.0;
  for (size_t row : ListedRows(kRows, options.seed, 0)) values[row] = low;
  simd::ResetDispatchCounts();
  const std::vector<size_t> selected =
      compressor.SelectIndices(values).ValueOrDie();
  EXPECT_GE(CwsArgmins(), 1u);
  const std::vector<double> weights =
      SampleCompressor::NormalizeWeights(values).ValueOrDie();
  for (uint64_t slot = 0; slot < selected.size(); ++slot) {
    EXPECT_EQ(selected[slot], Oracle(weights, options.seed, slot));
  }
}

}  // namespace
}  // namespace eafe::hashing
