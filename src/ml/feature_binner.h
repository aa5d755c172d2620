#ifndef EAFE_ML_FEATURE_BINNER_H_
#define EAFE_ML_FEATURE_BINNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"
#include "data/dataframe.h"

namespace eafe::ml {

/// Cut slots per column. Codes fit uint8, so a column has at most 255
/// cuts; the slots past its last cut hold +inf.
inline constexpr size_t kCutSlots = 256;
using PaddedCuts = std::array<double, kCutSlots>;

/// Bins per column of every fitted binner, and so of every tree learner.
inline constexpr size_t kMaxBins = 255;

namespace internal {

/// Bin code of `v`: the number of cuts < v in an ascending +inf-padded
/// cut array, which is the index std::lower_bound returns over the real
/// cuts. Eight fixed halving steps with no data-dependent branch (the
/// comparison is multiplied in, not branched on). Padding is never < v,
/// so the count is at most 255; NaN compares false everywhere and
/// encodes to 0, as under lower_bound.
inline uint8_t CountCutsBelow(const PaddedCuts& cuts, double v) {
  size_t pos = 0;
  for (size_t step = kCutSlots / 2; step > 0; step /= 2) {
    pos += static_cast<size_t>(cuts[pos + step - 1] < v) * step;
  }
  return static_cast<uint8_t>(pos);
}

/// +inf-pads `count` ascending cuts (count < kCutSlots) into `padded`.
void PadCuts(const double* cuts, size_t count, PaddedCuts* padded);

}  // namespace internal

/// Row-major bin codes of `x` (row r's codes at [r * F, (r + 1) * F) for
/// F = cuts.size()) under per-feature padded cuts: the one encoder of
/// fresh frames, for in-memory models (their binner's padded_cuts()) and
/// loaded containers alike. Requires x.num_columns() == cuts.size().
void EncodeRows(const std::vector<PaddedCuts>& cuts, const data::DataFrame& x,
                std::vector<uint8_t>* codes);

/// Quantizes every column of a DataFrame into at most kMaxBins ordinal
/// bins (uint8 codes) once per *frame*, so split finding can scan bin
/// boundaries (O(bins) per feature) instead of re-sorting raw values
/// (O(n log n)) at every node. A fitted binner is immutable and safe to
/// share across threads: a forest bins the frame once and every tree
/// trains through row-id views of the same codes (bootstrap is pure row
/// selection), instead of re-binning a materialized bootstrap copy.
///
/// Cut points are midpoints between adjacent distinct values: when a
/// column has <= kMaxBins distinct values the binning is lossless, and
/// histogram split finding considers exactly the thresholds the exact
/// backend would (the basis of the exact-vs-histogram agreement tests).
/// Wider columns fall back to evenly spaced quantiles of a deterministic
/// strided sample of the sorted values. No RNG is involved anywhere, so
/// binning is bit-identical across runs and thread counts.
class FeatureBinner {
 public:
  /// Computes per-column cut points and encodes every value.
  Status Fit(const data::DataFrame& x);

  /// A binner over `x` whose leading num_features() columns are the
  /// frame this binner was fitted on: it copies this binner's columns
  /// and bins only the columns of `x` past them.
  /// Cuts are per-column and RNG-free, so the result equals a Fit(x)
  /// bit for bit (cuts and codes) at the cost of the new columns only.
  /// The leading columns are not re-read; passing a frame whose leading
  /// columns differ from the fitted ones is a caller error. Fails when
  /// this binner is unfitted, the row counts differ, or `x` has fewer
  /// columns. Not counted by TotalFits.
  Result<FeatureBinner> Extend(const data::DataFrame& x) const;

  /// Copies the codes of frame rows `rows` into `codes`, row-major
  /// (num_features() per row), ready for the flat walk. Fails on a row id
  /// past num_rows().
  Status GatherRows(const std::vector<size_t>& rows,
                    std::vector<uint8_t>* codes) const;

  /// Process-wide count of Fit calls — test instrumentation for the
  /// zero-per-tree-re-binning guarantee (a forest fit must bump this
  /// exactly once). Relaxed atomic; reset only between test sections.
  static size_t TotalFits();
  static void ResetTotalFits();

  size_t num_features() const { return codes_.size(); }
  size_t num_rows() const { return codes_.empty() ? 0 : codes_[0].size(); }
  bool fitted() const { return !codes_.empty(); }

  /// Number of bins for feature `f` (1 means the column is constant).
  size_t num_bins(size_t f) const { return size_t{num_cuts_[f]} + 1; }

  /// Bin code of `row` in feature `f`.
  uint8_t code(size_t f, size_t row) const { return codes_[f][row]; }

  /// All codes of feature `f` (one uint8 per row).
  const std::vector<uint8_t>& codes(size_t f) const { return codes_[f]; }

  /// Threshold between bins `b` and `b+1` of feature `f`: raw values v
  /// with v <= cut(f, b) encode to a bin <= b. Requires b < num_bins - 1.
  double cut(size_t f, size_t b) const { return cuts_[f][b]; }

  /// Every feature's cuts, +inf-padded: EncodeRows encodes query frames
  /// through them exactly as Fit encoded the frame (internal::
  /// CountCutsBelow), so for any value v and split bin b, code(v) <= b
  /// exactly when v <= cut(b).
  const std::vector<PaddedCuts>& padded_cuts() const { return cuts_; }

 private:
  /// Computes column `f`'s cuts from `values` and encodes them; `sorted`
  /// is a sort buffer reused across columns.
  void BinColumn(size_t f, const std::vector<double>& values,
                 std::vector<double>* sorted);

  /// Ascending cuts, num_bins-1 real ones per column, +inf-padded.
  std::vector<PaddedCuts> cuts_;
  std::vector<uint16_t> num_cuts_;
  std::vector<std::vector<uint8_t>> codes_;  ///< Column-major bin codes.
};

}  // namespace eafe::ml

#endif  // EAFE_ML_FEATURE_BINNER_H_
