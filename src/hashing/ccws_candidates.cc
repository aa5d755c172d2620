#include "hashing/ccws_candidates.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "runtime/thread_pool.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"

namespace eafe::hashing {
namespace {

/// `p` rounded up to a float: the stored value is never below `p`.
float RoundUp(double p) {
  float f = static_cast<float>(p);
  if (static_cast<double>(f) < p) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

struct Ranked {
  double product;
  uint32_t row;
};

/// True when `a` ranks before `b`: a larger u1·u2, or an equal one at a
/// lower row. A function object, so the sorts inline it.
struct RanksBefore {
  bool operator()(const Ranked& a, const Ranked& b) const {
    return a.product > b.product || (a.product == b.product && a.row < b.row);
  }
};

/// The u1·u2 above which `rows` rows hold `target` of them in
/// expectation, or -1 (every row) when rows <= target. For independent
/// uniforms P(u1·u2 > t) = 1 - t + t·ln t, which falls from 1 at t = 0 to
/// 0 at t = 1; bisection solves it for t.
double ExpectedCut(size_t rows, size_t target) {
  if (rows <= target) return -1.0;
  const double share =
      static_cast<double>(target) / static_cast<double>(rows);
  double lo = 0.0;
  double hi = 1.0;
  for (int step = 0; step < 60; ++step) {
    const double mid = 0.5 * (lo + hi);
    (1.0 - mid + mid * std::log(mid) > share ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

CcwsCandidates::CcwsCandidates(size_t rows, uint64_t seed, size_t num_slots,
                               runtime::ThreadPool* pool)
    : rows_(rows),
      seed_(seed),
      depth_(std::min(kDepth, rows)),
      entries_(depth_ * num_slots),
      rest_(num_slots, 0.0f) {
  EAFE_CHECK(rows >= 1 && rows <= std::numeric_limits<uint32_t>::max());
  // A slot ranks only the rows above a cut that twice the rows it keeps
  // pass in expectation. Fewer than it keeps pass with probability below
  // 1e-18 (the binomial tail); the slot then ranks every row.
  const double cut = ExpectedCut(rows, 2 * (depth_ + 1));
  // Each slot writes only its own entries and bound.
  runtime::ParallelFor(pool, num_slots, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) BuildSlot(j, cut);
  });
}

void CcwsCandidates::BuildSlot(uint64_t slot, double cut) {
  const auto product = [&](size_t k) {
    return simd::Uniform01(seed_, slot, k, simd::kStreamC1) *
           simd::Uniform01(seed_, slot, k, simd::kStreamC2);
  };
  // Keeps the depth_ first-ranked rows and, when rows are left out, the
  // first-ranked of the rest, whose product bounds theirs. A row at or
  // below the cut ranks after every row above it, so the first `keep`
  // rows above the cut are the first `keep` overall when that many pass.
  const size_t keep = std::min(rows_, depth_ + 1);
  std::vector<Ranked> ranked;
  ranked.reserve(cut < 0.0 ? rows_ : 3 * keep);
  for (size_t k = 0; k < rows_; ++k) {
    const double p = product(k);
    if (p > cut) ranked.push_back({p, static_cast<uint32_t>(k)});
  }
  if (ranked.size() < keep) {
    ranked.clear();
    for (size_t k = 0; k < rows_; ++k) {
      ranked.push_back({product(k), static_cast<uint32_t>(k)});
    }
  }
  std::nth_element(ranked.begin(), ranked.begin() + (keep - 1), ranked.end(),
                   RanksBefore());
  std::sort(ranked.begin(), ranked.begin() + keep, RanksBefore());
  Entry* list = entries_.data() + slot * depth_;
  for (size_t i = 0; i < depth_; ++i) {
    list[i] = {RoundUp(ranked[i].product), ranked[i].row};
  }
  if (keep > depth_) rest_[slot] = RoundUp(ranked[depth_].product);
}

size_t CcwsCandidates::Select(const double* weights, double max_weight,
                              uint64_t slot) const {
  simd::internal::CcwsScan scan(max_weight, rows_);
  const Entry* list = entries_.data() + slot * depth_;
  for (size_t i = 0; i < depth_; ++i) {
    // Rows are listed by descending u1·u2, and every unlisted row's is at
    // most the last listed one's: once one listed row is provably below
    // the threshold, so is every row not yet offered.
    if (list[i].product < scan.threshold) return scan.best;
    const size_t k = list[i].row;
    if (weights[k] <= 0.0) continue;
    scan.Offer(simd::CcwsValueAt(weights[k], seed_, slot, k).value, k);
  }
  if (depth_ == rows_ || rest_[slot] < scan.threshold) return scan.best;
  return rows_;
}

}  // namespace eafe::hashing
