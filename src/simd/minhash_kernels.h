#ifndef EAFE_SIMD_MINHASH_KERNELS_H_
#define EAFE_SIMD_MINHASH_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace eafe::simd {

/// CWS flavors the argmin kernel evaluates. Licws reuses kIcws — it is
/// ICWS sampling with the quantization index discarded afterwards, which
/// does not change which element attains the minimum.
enum class CwsKernelScheme {
  kIcws,
  kPcws,
  kCcws,
};

/// Index of the element with the smallest CWS sampling value for hash
/// slot `slot` — the inner min-reduction of weighted-MinHash signature
/// computation. Elements with weights[k] <= 0 never compete; ties go to
/// the lowest index (the scan order of the scalar reference). Returns
/// `n` when no element has positive weight (callers CHECK against it).
///
/// `log_weights[k]` must hold PortableLog(weights[k]) for positive
/// weights (any placeholder otherwise); kCcws ignores it and may pass
/// nullptr. Every tier returns the index internal::CwsArgminScalar (the
/// full-scan oracle) returns, bit for bit. kCcws runs a bound-and-prune
/// scan at both tiers: rows whose two Gamma hashes prove their value
/// cannot beat the running best are skipped without evaluation (DESIGN
/// §9). kIcws/kPcws scan every row.
size_t CwsArgmin(CwsKernelScheme scheme, const double* weights,
                 const double* log_weights, size_t n, uint64_t seed,
                 uint64_t slot);

/// Index (position) of the smallest Mix64 hash over `n` elements for
/// slot `slot` — plain MinHash selection. `elements` maps positions to
/// element ids (nullptr means the identity: position k hashes element
/// k). Ties go to the lowest position. Requires n >= 1.
size_t PlainHashArgmin(const size_t* elements, size_t n, uint64_t seed,
                       uint64_t slot);

namespace internal {
/// Full scan of every row: the scalar tier for kIcws/kPcws and the test
/// oracle the pruned kCcws kernels must match.
size_t CwsArgminScalar(CwsKernelScheme scheme, const double* weights,
                       const double* log_weights, size_t n, uint64_t seed,
                       uint64_t slot);
/// AVX2 tier: full vector scan for kIcws/kPcws, CcwsArgminPrunedAvx2
/// for kCcws.
size_t CwsArgminAvx2(CwsKernelScheme scheme, const double* weights,
                     const double* log_weights, size_t n, uint64_t seed,
                     uint64_t slot);

/// Running state of a pruned CCWS scan. A row whose Gamma(2,1) uniforms
/// satisfy u1 * u2 < threshold has a sampling value > best_value and is
/// skipped; `threshold` is CcwsPruneThreshold(best_value, span) and only
/// grows as the best improves.
struct CcwsScan {
  double span = 0.0;  ///< max competing weight + 2 (bounds y + r2).
  double best_value = 0.0;
  size_t best = 0;
  double threshold = 0.0;

  /// Fresh scan over n rows: nothing found, nothing prunable yet.
  CcwsScan(double max_weight, size_t n);
  /// Adopts row k's fully evaluated value if it is below the best, or
  /// equal to it at a lower index, so rows may be offered in any order.
  void Offer(double value, size_t k);
};

/// exp(-A * span) with A = exp(best_value) * (1 + 1e-6), nudged down by
/// 2^-50 relative; 0 (prune nothing) when A is not a normal double.
double CcwsPruneThreshold(double best_value, double span);
/// Largest weight among rows that compete (!(w <= 0)); NaN if any
/// weight is NaN, 0 if none competes.
double CcwsMaxWeight(const double* weights, size_t n);
/// Pruned scalar scan of rows [begin, end) into `scan`.
void CcwsScanRows(const double* weights, size_t begin, size_t end,
                  uint64_t seed, uint64_t slot, CcwsScan* scan);
/// kCcws argmin, pruned: the scalar tier.
size_t CcwsArgminPrunedScalar(const double* weights, size_t n,
                              uint64_t seed, uint64_t slot);
/// kCcws argmin, pruned with a 4-lane bound pass.
size_t CcwsArgminPrunedAvx2(const double* weights, size_t n, uint64_t seed,
                            uint64_t slot);

size_t PlainHashArgminScalar(const size_t* elements, size_t n,
                             uint64_t seed, uint64_t slot);
size_t PlainHashArgminAvx2(const size_t* elements, size_t n, uint64_t seed,
                           uint64_t slot);
}  // namespace internal

}  // namespace eafe::simd

#endif  // EAFE_SIMD_MINHASH_KERNELS_H_
