#include "ml/feature_binner.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/string_util.h"

namespace eafe::ml {
namespace {

std::atomic<size_t> g_total_fits{0};

/// Cut points are estimated from at most this many values per column: an
/// evenly row-strided subsample, sorted. Columns at or under the cap are
/// sorted whole, which keeps binning lossless where the column has at
/// most kMaxBins distinct values.
constexpr size_t kMaxCutSamples = 4096;
// A sample must hold at least as many values as a column has bins.
static_assert(kMaxCutSamples >= kMaxBins);

}  // namespace

size_t FeatureBinner::TotalFits() {
  return g_total_fits.load(std::memory_order_relaxed);
}

void FeatureBinner::ResetTotalFits() {
  g_total_fits.store(0, std::memory_order_relaxed);
}

namespace {

/// Cut points for one column from its (possibly subsampled) sorted values:
/// midpoints between adjacent distinct values when those fit the bin
/// budget, otherwise midpoints at evenly spaced quantile boundaries.
/// Strictly ascending by construction.
std::vector<double> ComputeCuts(const std::vector<double>& sorted) {
  std::vector<double> cuts;
  if (sorted.size() < 2) return cuts;

  size_t distinct = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    distinct += sorted[i] != sorted[i - 1];
  }
  if (distinct <= kMaxBins) {
    cuts.reserve(distinct - 1);
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) continue;
      // Same formula as the exact backend's thresholds, so lossless
      // binning reproduces its cut values bitwise (not just its training
      // partition — validation rows between the two rounded midpoints
      // would otherwise route differently).
      const double cut = 0.5 * (sorted[i - 1] + sorted[i]);
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    return cuts;
  }

  // Quantile boundaries: a candidate cut between the samples flanking each
  // of kMaxBins evenly spaced positions. Boundaries inside a run of equal
  // values separate nothing and are dropped, so heavy-duplicate columns
  // produce fewer (still strictly ascending) cuts.
  cuts.reserve(kMaxBins - 1);
  for (size_t b = 1; b < kMaxBins; ++b) {
    const size_t pos = b * sorted.size() / kMaxBins;
    if (pos == 0 || pos >= sorted.size()) continue;
    const double lo = sorted[pos - 1];
    const double hi = sorted[pos];
    if (hi <= lo) continue;
    const double cut = 0.5 * (lo + hi);
    if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
  }
  return cuts;
}

}  // namespace

Status FeatureBinner::Fit(const data::DataFrame& x) {
  if (x.num_columns() == 0 || x.num_rows() == 0) {
    return Status::InvalidArgument("binner needs a nonempty frame");
  }
  g_total_fits.fetch_add(1, std::memory_order_relaxed);
  const size_t num_features = x.num_columns();
  cuts_.assign(num_features, {});
  num_cuts_.assign(num_features, 0);
  codes_.assign(num_features, {});
  std::vector<double> sorted;
  for (size_t f = 0; f < num_features; ++f) {
    BinColumn(f, x.column(f).values(), &sorted);
  }
  return Status::OK();
}

Result<FeatureBinner> FeatureBinner::Extend(const data::DataFrame& x) const {
  if (!fitted()) {
    return Status::FailedPrecondition("binner is not fitted");
  }
  if (x.num_rows() != num_rows()) {
    return Status::InvalidArgument(
        StrFormat("binner fitted on %zu rows, got %zu", num_rows(),
                  x.num_rows()));
  }
  if (x.num_columns() < num_features()) {
    return Status::InvalidArgument(
        StrFormat("cannot extend a %zu-feature binner to %zu columns",
                  num_features(), x.num_columns()));
  }
  FeatureBinner extended = *this;
  const size_t columns = x.num_columns();
  extended.cuts_.resize(columns);
  extended.num_cuts_.resize(columns);
  extended.codes_.resize(columns);
  std::vector<double> sorted;
  for (size_t f = num_features(); f < columns; ++f) {
    extended.BinColumn(f, x.column(f).values(), &sorted);
  }
  return extended;
}

void FeatureBinner::BinColumn(size_t f, const std::vector<double>& values,
                              std::vector<double>* sorted) {
  const size_t n = values.size();
  if (n > kMaxCutSamples) {
    // Wide column: estimate cuts from a deterministic even stride over
    // the rows (no RNG), sorting only the sample. Sorting the full
    // column would dominate the whole histogram fit at large n.
    sorted->resize(kMaxCutSamples);
    for (size_t i = 0; i < sorted->size(); ++i) {
      (*sorted)[i] = values[i * n / sorted->size()];
    }
  } else {
    *sorted = values;
  }
  std::sort(sorted->begin(), sorted->end());
  const std::vector<double> cuts = ComputeCuts(*sorted);

  // Pad once here so every later encode, down to a one-row predict, runs
  // the fixed-depth search without building a padded copy.
  PaddedCuts& padded = cuts_[f];
  internal::PadCuts(cuts.data(), cuts.size(), &padded);
  num_cuts_[f] = static_cast<uint16_t>(cuts.size());

  std::vector<uint8_t>& codes = codes_[f];
  codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = internal::CountCutsBelow(padded, values[i]);
  }
}

Status FeatureBinner::GatherRows(const std::vector<size_t>& rows,
                                 std::vector<uint8_t>* codes) const {
  for (size_t row : rows) {
    if (row >= num_rows()) {
      return Status::InvalidArgument(StrFormat(
          "row id %zu out of range (%zu frame rows)", row, num_rows()));
    }
  }
  const size_t width = num_features();
  codes->resize(rows.size() * width);
  uint8_t* out = codes->data();
  for (size_t f = 0; f < width; ++f) {
    const uint8_t* column = codes_[f].data();
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i * width + f] = column[rows[i]];
    }
  }
  return Status::OK();
}

namespace internal {

void PadCuts(const double* cuts, size_t count, PaddedCuts* padded) {
  std::copy(cuts, cuts + count, padded->begin());
  std::fill(padded->begin() + static_cast<std::ptrdiff_t>(count),
            padded->end(), std::numeric_limits<double>::infinity());
}

}  // namespace internal

void EncodeRows(const std::vector<PaddedCuts>& cuts, const data::DataFrame& x,
                std::vector<uint8_t>* codes) {
  const size_t n = x.num_rows();
  const size_t width = cuts.size();
  codes->resize(n * width);
  uint8_t* out = codes->data();
  // Feature-outer keeps one feature's cuts hot in cache; writes stride by
  // the row width so a finished row's codes are contiguous.
  for (size_t f = 0; f < width; ++f) {
    const PaddedCuts& padded = cuts[f];
    const std::vector<double>& values = x.column(f).values();
    for (size_t r = 0; r < n; ++r) {
      out[r * width + f] = internal::CountCutsBelow(padded, values[r]);
    }
  }
}

}  // namespace eafe::ml
