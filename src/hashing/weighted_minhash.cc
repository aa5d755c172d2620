#include "hashing/weighted_minhash.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/string_util.h"
#include "hashing/minhash.h"
#include "runtime/thread_pool.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"

namespace eafe::hashing {
namespace {

/// The kernel-layer scheme for a CWS flavor. Licws maps to kIcws: 0-bit
/// CWS is ICWS sampling with the quantization index dropped from the
/// signature, and a signature here holds only the selected rows.
simd::CwsKernelScheme KernelScheme(MinHashScheme scheme) {
  switch (scheme) {
    case MinHashScheme::kPcws:
      return simd::CwsKernelScheme::kPcws;
    case MinHashScheme::kCcws:
      return simd::CwsKernelScheme::kCcws;
    default:
      return simd::CwsKernelScheme::kIcws;
  }
}

}  // namespace

std::string MinHashSchemeToString(MinHashScheme scheme) {
  switch (scheme) {
    case MinHashScheme::kPlain:
      return "plain";
    case MinHashScheme::kIcws:
      return "icws";
    case MinHashScheme::kCcws:
      return "ccws";
    case MinHashScheme::kPcws:
      return "pcws";
    case MinHashScheme::kLicws:
      return "licws";
    case MinHashScheme::kExactQuantile:
      return "quantile";
  }
  return "?";
}

Result<MinHashScheme> MinHashSchemeFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "plain" || lower == "minhash") return MinHashScheme::kPlain;
  if (lower == "icws") return MinHashScheme::kIcws;
  if (lower == "ccws") return MinHashScheme::kCcws;
  if (lower == "pcws") return MinHashScheme::kPcws;
  if (lower == "licws" || lower == "0bit" || lower == "zerobit") {
    return MinHashScheme::kLicws;
  }
  if (lower == "quantile" || lower == "exact_quantile") {
    return MinHashScheme::kExactQuantile;
  }
  return Status::InvalidArgument("unknown MinHash scheme: " + name);
}

const std::vector<MinHashScheme>& AllMinHashSchemes() {
  static const auto* kSchemes = new std::vector<MinHashScheme>{
      MinHashScheme::kPlain,  MinHashScheme::kIcws,
      MinHashScheme::kCcws,   MinHashScheme::kPcws,
      MinHashScheme::kLicws,  MinHashScheme::kExactQuantile,
  };
  return *kSchemes;
}

namespace {

/// Rank-based selection for the exact-quantile baseline: row indices at d
/// evenly spaced positions of the value-sorted order.
std::vector<size_t> ExactQuantileSelect(const std::vector<double>& weights,
                                        size_t num_slots) {
  std::vector<size_t> order(weights.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] < weights[b];
  });
  std::vector<size_t> selected(num_slots);
  for (size_t j = 0; j < num_slots; ++j) {
    const double position = (static_cast<double>(j) + 0.5) /
                            static_cast<double>(num_slots) *
                            static_cast<double>(order.size());
    size_t rank = static_cast<size_t>(position);
    if (rank >= order.size()) rank = order.size() - 1;
    selected[j] = order[rank];
  }
  return selected;
}

}  // namespace

namespace {

/// True for the schemes whose sampling value quantizes log(weight); those
/// share a per-element log that is hoisted out of the d-slot loop.
bool UsesLogWeights(MinHashScheme scheme) {
  return scheme == MinHashScheme::kIcws ||
         scheme == MinHashScheme::kPcws || scheme == MinHashScheme::kLicws;
}

/// log(w) per element (0 placeholder for non-positive weights, which are
/// skipped during sampling). Computed once per feature, not once per
/// (element, hash function). Uses the kernel layer's PortableLog — the
/// same function both dispatch tiers evaluate — so the sampling values
/// are bit-identical at every EAFE_SIMD level.
std::vector<double> LogWeights(const std::vector<double>& weights) {
  std::vector<double> logs(weights.size(), 0.0);
  for (size_t k = 0; k < weights.size(); ++k) {
    if (weights[k] > 0.0) logs[k] = simd::PortableLog(weights[k]);
  }
  return logs;
}

/// Runs slot(j) for every j in [0, num_slots) over a column of `rows`
/// elements, spread over the global pool. Each slot is a pure function of
/// (weights, seed, j) that writes only its own index, so the result is
/// the serial loop's at any thread count.
///
/// Columns shorter than kSlotFanOutMinRows stay inline. 48 CCWS slots
/// fanned over 4 threads broke even with the serial loop at 32-64 rows
/// and ran 1.6-1.8x faster at 128 (median of 201, 4-vCPU AVX2 guest with
/// idle cores); below that a pool round trip costs more than the slots it
/// spreads, and with busy cores fan-out only adds the round trip. A
/// caller already on a pool worker (a search pipeline worker, which
/// filters and then evaluates its own task, or a server's FPE route) also
/// stays inline: ParallelFor would run inline there anyway, and skipping
/// GlobalPool() keeps a process that never asked for the global pool
/// from building one.
constexpr size_t kSlotFanOutMinRows = 128;

template <typename SlotFn>
void ForEachSlot(size_t rows, size_t num_slots, const SlotFn& slot) {
  runtime::ThreadPool* pool =
      rows >= kSlotFanOutMinRows && !runtime::ThreadPool::OnWorkerThread()
          ? runtime::GlobalPool()
          : nullptr;
  runtime::ParallelFor(pool, num_slots, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) slot(j);
  });
}

}  // namespace

std::vector<size_t> WeightedMinHashSelect(MinHashScheme scheme,
                                          const std::vector<double>& weights,
                                          size_t num_slots, uint64_t seed) {
  EAFE_CHECK(!weights.empty());
  if (scheme == MinHashScheme::kPlain) {
    return PlainMinHashSelect(weights, num_slots, seed);
  }
  if (scheme == MinHashScheme::kExactQuantile) {
    return ExactQuantileSelect(weights, num_slots);
  }
  // Validated once per feature, not once per slot.
  bool any_positive = false;
  for (double w : weights) {
    EAFE_CHECK_GE(w, 0.0);
    any_positive = any_positive || w > 0.0;
  }
  std::vector<size_t> selected(num_slots);
  if (!any_positive) {
    // Degenerate all-zero feature: fall back to uniform hashing so the
    // signature is still defined.
    ForEachSlot(weights.size(), num_slots, [&](size_t j) {
      selected[j] = simd::PlainHashArgmin(nullptr, weights.size(), seed, j);
    });
    return selected;
  }
  // Hoist the per-element derived constants (log(weight) for the
  // log-quantizing schemes) out of the per-slot loop: they are identical
  // for all d hash functions.
  const std::vector<double> log_weights =
      UsesLogWeights(scheme) ? LogWeights(weights) : std::vector<double>();
  const double* logs = log_weights.empty() ? nullptr : log_weights.data();
  const simd::CwsKernelScheme kernel = KernelScheme(scheme);
  ForEachSlot(weights.size(), num_slots, [&](size_t j) {
    const size_t k = simd::CwsArgmin(kernel, weights.data(), logs,
                                     weights.size(), seed, j);
    EAFE_CHECK_MSG(k < weights.size(),
                   "consistent weighted sampling needs a positive weight");
    selected[j] = k;
  });
  return selected;
}

}  // namespace eafe::hashing
