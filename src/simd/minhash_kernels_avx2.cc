#include <bit>
#include <limits>

#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"

#if defined(__x86_64__) || defined(__i386__)

#include "simd/avx2_math.h"

namespace eafe::simd::internal {
namespace {

using avx2::Gamma21Vec;
using avx2::Mix64Vec;
using avx2::MulLo64;
using avx2::Neg;
using avx2::PortableLogVec;
using avx2::UnitFromHashVec;

inline long long AsLL(uint64_t v) { return static_cast<long long>(v); }

/// (seed ^ stream-salt) ^ slot*kMixSlotMul — the per-(stream, slot) part
/// of Mix64's key, hoisted out of the element loop.
inline uint64_t StreamKey(uint64_t seed, uint64_t slot, uint64_t stream) {
  return (seed ^ (stream * kMixStreamMul)) ^ (slot * kMixSlotMul);
}

struct CwsKeys {
  __m256i r1, r2, c1, c2, beta, u;
};

inline CwsKeys MakeKeys(uint64_t seed, uint64_t slot) {
  CwsKeys keys;
  keys.r1 = _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamR1)));
  keys.r2 = _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamR2)));
  keys.c1 = _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamC1)));
  keys.c2 = _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamC2)));
  keys.beta = _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamBeta)));
  keys.u = _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamU)));
  return keys;
}

/// IcwsValueAt lanes: identical operation order, log_weight from memory.
inline __m256d IcwsValueVec(const CwsKeys& keys, __m256i ek, __m256d lw) {
  const __m256d r = Gamma21Vec(keys.r1, keys.r2, ek);
  const __m256d c = Gamma21Vec(keys.c1, keys.c2, ek);
  const __m256d beta = UnitFromHashVec(Mix64Vec(keys.beta, ek));
  const __m256d t =
      _mm256_floor_pd(_mm256_add_pd(_mm256_div_pd(lw, r), beta));
  const __m256d ln_y = _mm256_mul_pd(r, _mm256_sub_pd(t, beta));
  return _mm256_sub_pd(_mm256_sub_pd(PortableLogVec(c), ln_y), r);
}

/// PcwsValueAt lanes.
inline __m256d PcwsValueVec(const CwsKeys& keys, __m256i ek, __m256d lw) {
  const __m256d r = Gamma21Vec(keys.r1, keys.r2, ek);
  const __m256d u = UnitFromHashVec(Mix64Vec(keys.u, ek));
  const __m256d beta = UnitFromHashVec(Mix64Vec(keys.beta, ek));
  const __m256d t =
      _mm256_floor_pd(_mm256_add_pd(_mm256_div_pd(lw, r), beta));
  const __m256d ln_y = _mm256_mul_pd(r, _mm256_sub_pd(t, beta));
  const __m256d num = PortableLogVec(Neg(PortableLogVec(u)));
  return _mm256_sub_pd(_mm256_sub_pd(num, ln_y), r);
}

/// Full vector scan for the log-quantizing schemes (kIcws, kPcws).
template <CwsKernelScheme S>
size_t CwsArgminLoop(const double* weights, const double* log_weights,
                     size_t n, uint64_t seed, uint64_t slot) {
  const CwsKeys keys = MakeKeys(seed, slot);
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d zero = _mm256_setzero_pd();
  __m256d best_v = inf;
  __m256i best_i = _mm256_set1_epi64x(AsLL(n));
  __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  __m256i ek = _mm256_setr_epi64x(AsLL(0 * kMixElementMul),
                                  AsLL(1 * kMixElementMul),
                                  AsLL(2 * kMixElementMul),
                                  AsLL(3 * kMixElementMul));
  const __m256i ek_step = _mm256_set1_epi64x(AsLL(4 * kMixElementMul));
  const __m256i idx_step = _mm256_set1_epi64x(4);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d w = _mm256_loadu_pd(weights + i);
    const __m256d lw = _mm256_loadu_pd(log_weights + i);
    __m256d value;
    if constexpr (S == CwsKernelScheme::kIcws) {
      value = IcwsValueVec(keys, ek, lw);
    } else {
      value = PcwsValueVec(keys, ek, lw);
    }
    // Non-positive weights never compete: their lanes carry +inf, which
    // a strict < can't adopt (sampling values are always finite).
    const __m256d pos = _mm256_cmp_pd(w, zero, _CMP_GT_OQ);
    value = _mm256_blendv_pd(inf, value, pos);
    const __m256d lt = _mm256_cmp_pd(value, best_v, _CMP_LT_OQ);
    best_v = _mm256_blendv_pd(best_v, value, lt);
    best_i = _mm256_blendv_epi8(best_i, idx, _mm256_castpd_si256(lt));
    ek = _mm256_add_epi64(ek, ek_step);
    idx = _mm256_add_epi64(idx, idx_step);
  }
  // Per-lane strict < kept each lane's first minimum, so the smallest
  // index among value-tied lanes is the global first minimum.
  alignas(32) double vals[4];
  alignas(32) long long idxs[4];
  _mm256_store_pd(vals, best_v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), best_i);  // eafe-lint: allow(raw-deserialize): vector load/store pointer cast, in-process.
  double best_value = std::numeric_limits<double>::infinity();
  size_t best = n;
  for (int lane = 0; lane < 4; ++lane) {
    const auto id = static_cast<size_t>(idxs[lane]);
    if (vals[lane] < best_value ||
        (vals[lane] == best_value && id < best)) {
      best_value = vals[lane];
      best = id;
    }
  }
  // Scalar tail: indices exceed every vector index, so strict < alone
  // preserves first-minimum semantics.
  for (size_t k = i; k < n; ++k) {
    if (weights[k] <= 0.0) continue;
    double value;
    if constexpr (S == CwsKernelScheme::kIcws) {
      value = IcwsValueAt(log_weights[k], seed, slot, k).value;
    } else {
      value = PcwsValueAt(log_weights[k], seed, slot, k).value;
    }
    if (value < best_value) {
      best_value = value;
      best = k;
    }
  }
  return best;
}

/// CcwsMaxWeight 16 rows per step. max is exact in any order; the
/// unordered compares catch the NaNs that max_pd drops.
double MaxWeightVec(const double* weights, size_t n) {
  __m256d m0 = _mm256_setzero_pd();
  __m256d m1 = m0, m2 = m0, m3 = m0, nan = m0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d w0 = _mm256_loadu_pd(weights + i);
    const __m256d w1 = _mm256_loadu_pd(weights + i + 4);
    const __m256d w2 = _mm256_loadu_pd(weights + i + 8);
    const __m256d w3 = _mm256_loadu_pd(weights + i + 12);
    m0 = _mm256_max_pd(m0, w0);
    m1 = _mm256_max_pd(m1, w1);
    m2 = _mm256_max_pd(m2, w2);
    m3 = _mm256_max_pd(m3, w3);
    nan = _mm256_or_pd(nan,
                       _mm256_or_pd(_mm256_cmp_pd(w0, w1, _CMP_UNORD_Q),
                                    _mm256_cmp_pd(w2, w3, _CMP_UNORD_Q)));
  }
  if (_mm256_movemask_pd(nan) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_max_pd(_mm256_max_pd(m0, m1),
                                       _mm256_max_pd(m2, m3)));
  double max_weight = CcwsMaxWeight(weights + i, n - i);
  for (const double lane : lanes) {
    if (lane > max_weight) max_weight = lane;
  }
  return max_weight;
}

}  // namespace

size_t CcwsArgminPrunedAvx2(const double* weights, size_t n, uint64_t seed,
                            uint64_t slot) {
  if (n < 8) return CcwsArgminPrunedScalar(weights, n, seed, slot);
  CcwsScan scan(MaxWeightVec(weights, n), n);
  const __m256i key_c1 =
      _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamC1)));
  const __m256i key_c2 =
      _mm256_set1_epi64x(AsLL(StreamKey(seed, slot, kStreamC2)));
  const __m256d zero = _mm256_setzero_pd();
  __m256i ek = _mm256_setr_epi64x(AsLL(0 * kMixElementMul),
                                  AsLL(1 * kMixElementMul),
                                  AsLL(2 * kMixElementMul),
                                  AsLL(3 * kMixElementMul));
  const __m256i ek_step = _mm256_set1_epi64x(AsLL(4 * kMixElementMul));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // The lane-wise form of CcwsScanRows' two tests, with NaN-true
    // predicates so a lane survives exactly when the scalar would not
    // `continue`: it competes (!(w <= 0)) and u1 * u2 is not below the
    // threshold.
    const __m256d u1 = UnitFromHashVec(Mix64Vec(key_c1, ek));
    const __m256d u2 = UnitFromHashVec(Mix64Vec(key_c2, ek));
    const __m256d live = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(weights + i), zero, _CMP_NLE_UQ),
        _mm256_cmp_pd(_mm256_mul_pd(u1, u2),
                      _mm256_set1_pd(scan.threshold), _CMP_NLT_UQ));
    // Survivors are evaluated in index order. A best found in an earlier
    // lane raises the threshold the later lanes were tested against:
    // that can only cost an extra evaluation, never a wrong skip.
    for (auto mask = static_cast<unsigned>(_mm256_movemask_pd(live));
         mask != 0; mask &= mask - 1) {
      const size_t k = i + static_cast<size_t>(std::countr_zero(mask));
      scan.Offer(CcwsValueAt(weights[k], seed, slot, k).value, k);
    }
    ek = _mm256_add_epi64(ek, ek_step);
  }
  CcwsScanRows(weights, i, n, seed, slot, &scan);
  return scan.best;
}

size_t CwsArgminAvx2(CwsKernelScheme scheme, const double* weights,
                     const double* log_weights, size_t n, uint64_t seed,
                     uint64_t slot) {
  if (scheme == CwsKernelScheme::kCcws) {
    return CcwsArgminPrunedAvx2(weights, n, seed, slot);
  }
  if (n < 8) {
    return CwsArgminScalar(scheme, weights, log_weights, n, seed, slot);
  }
  if (scheme == CwsKernelScheme::kIcws) {
    return CwsArgminLoop<CwsKernelScheme::kIcws>(weights, log_weights, n,
                                                 seed, slot);
  }
  return CwsArgminLoop<CwsKernelScheme::kPcws>(weights, log_weights, n,
                                               seed, slot);
}

size_t PlainHashArgminAvx2(const size_t* elements, size_t n, uint64_t seed,
                           uint64_t slot) {
  if (n < 9) return PlainHashArgminScalar(elements, n, seed, slot);
  // Position 0 seeds the running best (see the scalar reference); the
  // vector covers [1, 1 + 4m) and the tail finishes scalar.
  uint64_t best_hash = Mix64(seed, slot, elements != nullptr ? elements[0] : 0);
  size_t best = 0;
  const uint64_t key = seed ^ (slot * kMixSlotMul);
  const __m256i key_v = _mm256_set1_epi64x(AsLL(key));
  const __m256i sign = _mm256_set1_epi64x(AsLL(0x8000000000000000ULL));
  const __m256i elem_mul = _mm256_set1_epi64x(AsLL(kMixElementMul));
  __m256i best_h = _mm256_set1_epi64x(-1);  // UINT64_MAX lanes.
  __m256i best_i = _mm256_set1_epi64x(AsLL(n));
  __m256i idx = _mm256_setr_epi64x(1, 2, 3, 4);
  __m256i ek = _mm256_setr_epi64x(AsLL(1 * kMixElementMul),
                                  AsLL(2 * kMixElementMul),
                                  AsLL(3 * kMixElementMul),
                                  AsLL(4 * kMixElementMul));
  const __m256i ek_step = _mm256_set1_epi64x(AsLL(4 * kMixElementMul));
  const __m256i idx_step = _mm256_set1_epi64x(4);
  size_t k = 1;
  for (; k + 4 <= n; k += 4) {
    __m256i e;
    if (elements != nullptr) {
      e = MulLo64(_mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(elements + k)),  // eafe-lint: allow(raw-deserialize): vector load/store pointer cast, in-process.
                  elem_mul);
    } else {
      e = ek;
      ek = _mm256_add_epi64(ek, ek_step);
    }
    const __m256i h = Mix64Vec(key_v, e);
    // Unsigned h < best_h via the sign-flip trick.
    const __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(best_h, sign),
                                          _mm256_xor_si256(h, sign));
    best_h = _mm256_blendv_epi8(best_h, h, lt);
    best_i = _mm256_blendv_epi8(best_i, idx, lt);
    idx = _mm256_add_epi64(idx, idx_step);
  }
  alignas(32) unsigned long long hashes[4];
  alignas(32) long long idxs[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(hashes), best_h);  // eafe-lint: allow(raw-deserialize): vector load/store pointer cast, in-process.
  _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), best_i);  // eafe-lint: allow(raw-deserialize): vector load/store pointer cast, in-process.
  for (int lane = 0; lane < 4; ++lane) {
    const auto id = static_cast<size_t>(idxs[lane]);
    if (hashes[lane] < best_hash ||
        (hashes[lane] == best_hash && id < best)) {
      best_hash = hashes[lane];
      best = id;
    }
  }
  for (; k < n; ++k) {
    const uint64_t h =
        Mix64(seed, slot, elements != nullptr ? elements[k] : k);
    if (h < best_hash) {
      best_hash = h;
      best = k;
    }
  }
  return best;
}

}  // namespace eafe::simd::internal

#else  // !x86: the dispatcher never selects this tier; delegate anyway.

namespace eafe::simd::internal {

size_t CcwsArgminPrunedAvx2(const double* weights, size_t n, uint64_t seed,
                            uint64_t slot) {
  return CcwsArgminPrunedScalar(weights, n, seed, slot);
}

size_t CwsArgminAvx2(CwsKernelScheme scheme, const double* weights,
                     const double* log_weights, size_t n, uint64_t seed,
                     uint64_t slot) {
  if (scheme == CwsKernelScheme::kCcws) {
    return CcwsArgminPrunedScalar(weights, n, seed, slot);
  }
  return CwsArgminScalar(scheme, weights, log_weights, n, seed, slot);
}

size_t PlainHashArgminAvx2(const size_t* elements, size_t n, uint64_t seed,
                           uint64_t slot) {
  return PlainHashArgminScalar(elements, n, seed, slot);
}

}  // namespace eafe::simd::internal

#endif
