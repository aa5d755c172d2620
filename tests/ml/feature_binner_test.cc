#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.h"
#include "data/dataframe.h"
#include "ml/feature_binner.h"

// Contracts of FeatureBinner::Extend and of the fixed-depth encode that
// Fit and Encode share: an extended binner is a Fit of the wider frame,
// bit for bit, and every code is the std::lower_bound index of its value
// among the column's cuts.

namespace eafe::ml {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The four kinds of column binning treats differently, at `rows` rows:
/// lossless (200 distinct values, at most kMaxBins), continuous (quantile
/// cuts once the distinct values outgrow kMaxBins), constant, and
/// tie-heavy (a few values carrying most rows, with a continuous tail).
std::vector<data::Column> MixedColumns(size_t rows, uint64_t seed,
                                       const std::string& prefix) {
  Rng rng(seed);
  std::vector<double> lossless(rows), continuous(rows), constant(rows, 2.5),
      ties(rows);
  for (size_t i = 0; i < rows; ++i) {
    lossless[i] = static_cast<double>(rng.UniformInt(200)) - 100.0;
    continuous[i] = rng.Normal();
    ties[i] = rng.Uniform() < 0.9 ? static_cast<double>(rng.UniformInt(3))
                                  : rng.Normal(10.0, 3.0);
  }
  return {data::Column(prefix + "lossless", std::move(lossless)),
          data::Column(prefix + "continuous", std::move(continuous)),
          data::Column(prefix + "constant", std::move(constant)),
          data::Column(prefix + "ties", std::move(ties))};
}

/// Bit-level equality of two binners: bin counts, every cut's bit
/// pattern, and every code.
void ExpectSameBins(const FeatureBinner& a, const FeatureBinner& b) {
  ASSERT_EQ(a.num_features(), b.num_features());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t f = 0; f < a.num_features(); ++f) {
    SCOPED_TRACE("feature " + std::to_string(f));
    ASSERT_EQ(a.num_bins(f), b.num_bins(f));
    for (size_t c = 0; c + 1 < a.num_bins(f); ++c) {
      const double cut_a = a.cut(f, c);
      const double cut_b = b.cut(f, c);
      EXPECT_EQ(std::memcmp(&cut_a, &cut_b, sizeof(double)), 0);
    }
    EXPECT_EQ(a.codes(f), b.codes(f));
  }
}

// The column shapes pick the cut path: 5000 rows exceed the 4096-value
// cut sample, so every column takes the strided sample, while 1000 rows
// sort whole; at either height the lossless column keeps all 200 values
// and the continuous one is quantile-binned.
TEST(FeatureBinnerExtendTest, EqualsFitBitForBit) {
  for (const size_t rows : {size_t{5000}, size_t{1000}}) {
    data::DataFrame wide;
    for (data::Column& column : MixedColumns(rows, 5, "a_")) {
      ASSERT_TRUE(wide.AddColumn(std::move(column)).ok());
    }
    for (data::Column& column : MixedColumns(rows, 6, "b_")) {
      ASSERT_TRUE(wide.AddColumn(std::move(column)).ok());
    }
    FeatureBinner full;
    ASSERT_TRUE(full.Fit(wide).ok());
    std::vector<double> lossless = wide.column(0).values();
    std::sort(lossless.begin(), lossless.end());
    const auto distinct = static_cast<size_t>(
        std::unique(lossless.begin(), lossless.end()) - lossless.begin());
    ASSERT_EQ(full.num_bins(0), distinct);      // One bin per value.
    ASSERT_GT(full.num_bins(1), kMaxBins - 5);  // Quantile cuts.
    // Every split point: fit the leading `prefix` columns, extend to all.
    for (size_t prefix = 1; prefix <= wide.num_columns(); ++prefix) {
      SCOPED_TRACE("rows " + std::to_string(rows) + " prefix " +
                   std::to_string(prefix));
      data::DataFrame leading;
      for (size_t c = 0; c < prefix; ++c) {
        ASSERT_TRUE(leading.AddColumn(wide.column(c)).ok());
      }
      FeatureBinner frame;
      ASSERT_TRUE(frame.Fit(leading).ok());
      const size_t fits = FeatureBinner::TotalFits();
      const FeatureBinner extended = frame.Extend(wide).ValueOrDie();
      EXPECT_EQ(FeatureBinner::TotalFits(), fits);  // Extend is not a Fit.
      ExpectSameBins(extended, full);
    }
  }
}

TEST(FeatureBinnerExtendTest, RejectsBadInput) {
  data::DataFrame x;
  ASSERT_TRUE(x.AddColumn(data::Column("a", {1.0, 2.0, 3.0})).ok());
  ASSERT_TRUE(x.AddColumn(data::Column("b", {3.0, 1.0, 2.0})).ok());

  // Unfitted.
  EXPECT_EQ(FeatureBinner().Extend(x).status().code(),
            StatusCode::kFailedPrecondition);

  FeatureBinner binner;
  ASSERT_TRUE(binner.Fit(x).ok());
  // Row-count mismatch.
  data::DataFrame taller;
  ASSERT_TRUE(taller.AddColumn(data::Column("a", {1.0, 2.0, 3.0, 4.0})).ok());
  ASSERT_TRUE(taller.AddColumn(data::Column("b", {1.0, 2.0, 3.0, 4.0})).ok());
  ASSERT_TRUE(taller.AddColumn(data::Column("c", {1.0, 2.0, 3.0, 4.0})).ok());
  EXPECT_EQ(binner.Extend(taller).status().code(),
            StatusCode::kInvalidArgument);
  // Fewer columns than the fitted frame.
  data::DataFrame narrower;
  ASSERT_TRUE(narrower.AddColumn(x.column(0)).ok());
  EXPECT_EQ(binner.Extend(narrower).status().code(),
            StatusCode::kInvalidArgument);
  // The same width is a plain copy.
  ExpectSameBins(binner.Extend(x).ValueOrDie(), binner);
}

/// `count` strictly ascending cuts spread over a 255-value ladder that
/// holds the infinities, the largest and smallest normals, subnormals
/// and zero, plus an ordinary run in between.
PaddedCuts MakeCuts(size_t count, std::vector<double>* real) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const double huge = std::numeric_limits<double>::max();
  std::vector<double> ladder = {-kInf, -huge, -1e300, -1.0, -tiny, -tiny / 2,
                                -3 * denorm, -denorm, 0.0, denorm, 3 * denorm,
                                tiny / 2, tiny, 1.0, 1e300, huge, kInf};
  for (size_t i = 0; ladder.size() < 255; ++i) {
    ladder.push_back(2.0 + 0.25 * static_cast<double>(i));
  }
  std::sort(ladder.begin(), ladder.end());
  real->clear();
  for (size_t i = 0; i < count; ++i) {
    real->push_back(ladder[(2 * i + 1) * ladder.size() / (2 * count)]);
  }
  PaddedCuts padded;
  padded.fill(kInf);
  std::copy(real->begin(), real->end(), padded.begin());
  return padded;
}

TEST(CountCutsBelowTest, EqualsLowerBoundOnEdgeValues) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const size_t count : {size_t{0}, size_t{1}, size_t{254}, size_t{255}}) {
    SCOPED_TRACE("cuts " + std::to_string(count));
    std::vector<double> cuts;
    const PaddedCuts padded = MakeCuts(count, &cuts);
    ASSERT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
    ASSERT_TRUE(std::adjacent_find(cuts.begin(), cuts.end()) == cuts.end());
    std::vector<double> queries = {
        std::numeric_limits<double>::quiet_NaN(), -kInf, kInf, 0.0, -0.0,
        denorm, -denorm, 2 * denorm, std::numeric_limits<double>::min() / 4,
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::max()};
    for (const double cut : cuts) {
      queries.push_back(cut);
      queries.push_back(std::nextafter(cut, -kInf));
      queries.push_back(std::nextafter(cut, kInf));
    }
    for (const double v : queries) {
      const auto expected =
          std::lower_bound(cuts.begin(), cuts.end(), v) - cuts.begin();
      EXPECT_EQ(internal::CountCutsBelow(padded, v),
                static_cast<uint8_t>(expected))
          << "v = " << v;
    }
  }
}

}  // namespace
}  // namespace eafe::ml
