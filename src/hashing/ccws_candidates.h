#ifndef EAFE_HASHING_CCWS_CANDIDATES_H_
#define EAFE_HASHING_CCWS_CANDIDATES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eafe::runtime {
class ThreadPool;
}  // namespace eafe::runtime

namespace eafe::hashing {

/// The value-independent half of a CCWS selection over columns of
/// `rows` elements (DESIGN.md §9, "Candidate lists"). The pruned CCWS
/// scan skips row k of slot j once u1·u2 < T, where u1 and u2 are the
/// two Gamma(2,1) uniforms of (seed, j, k) and T only grows as the
/// scan's best improves. u1·u2 reads no weight, so the rows a slot can
/// ever need are listed once per (rows, seed) and serve every column of
/// that length: per slot, the kDepth rows with the largest product in
/// descending order, and a bound on the product of every row left out.
/// A listed slot evaluates rows in list order and stops at the first
/// whose product falls below T, instead of hashing all `rows` rows.
class CcwsCandidates {
 public:
  /// Rows listed per slot. On the search columns of the e2ebench E-AFE
  /// workloads a slot stopped at median depth 8-9 and p99 76-89; past
  /// kDepth a slot falls back to the full kernel.
  static constexpr size_t kDepth = 128;

  /// Lists every one of `num_slots` slots: one hashing pass over all
  /// rows per slot, spread over `pool` (null: inline). Requires
  /// 1 <= rows <= UINT32_MAX.
  CcwsCandidates(size_t rows, uint64_t seed, size_t num_slots,
                 runtime::ThreadPool* pool = nullptr);

  /// Slot `slot`'s CCWS argmin over `weights`: `rows()` nonnegative
  /// weights with at least one positive, the largest of them
  /// `max_weight`. Returns the index simd::internal::CwsArgminScalar
  /// returns, or rows() when the list runs out before it proves the
  /// answer; the caller then runs the full kernel.
  size_t Select(const double* weights, double max_weight,
                uint64_t slot) const;

  size_t rows() const { return rows_; }

 private:
  struct Entry {
    float product;  ///< u1·u2 rounded up, so product < T proves u1·u2 < T.
    uint32_t row;
  };

  /// Lists slot `slot` into entries_ and rest_, ranking the rows whose
  /// u1·u2 exceeds `cut` (every row when too few do).
  void BuildSlot(uint64_t slot, double cut);

  size_t rows_;
  uint64_t seed_;
  size_t depth_;  ///< Entries per slot: min(kDepth, rows).
  std::vector<Entry> entries_;  ///< depth_ per slot, slot after slot.
  /// Per slot, u1·u2 of the largest unlisted row, rounded up (0 when
  /// every row is listed): no row outside the list has a larger one.
  std::vector<float> rest_;
};

}  // namespace eafe::hashing

#endif  // EAFE_HASHING_CCWS_CANDIDATES_H_
