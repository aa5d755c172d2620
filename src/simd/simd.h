#ifndef EAFE_SIMD_SIMD_H_
#define EAFE_SIMD_SIMD_H_

#include <cstdint>
#include <string>

namespace eafe::runtime {
class MetricGateway;
}  // namespace eafe::runtime

namespace eafe::simd {

/// Runtime-dispatched kernel tier. Every kernel in src/simd/ ships a
/// portable scalar reference (the exact, fixed-order baseline the
/// determinism suites pin); only the MinHash argmins also ship an AVX2
/// specialization. The active tier is resolved once per process: the
/// EAFE_SIMD environment variable ("scalar" or "avx2") wins, otherwise
/// the best cpuid-supported tier is used. Every kernel returns the same
/// bits at every tier (DESIGN.md §9).
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Kernel families with per-dispatch counters (DispatchCount), so the
/// metrics exposition can show which tier actually served the hot loops.
/// Single-tier kernels (histograms, walk) count under Level::kScalar.
enum class Kernel : int {
  kCwsArgmin = 0,    ///< Weighted-MinHash sampling-value argmin per slot.
  kPlainArgmin = 1,  ///< Unweighted MixHash argmin per slot.
  kClassCounts = 2,  ///< Histogram per-class count accumulation.
  kTriples = 3,      ///< Histogram {count, Σa, Σb} accumulation.
  kSubtract = 4,     ///< Histogram parent-minus-sibling subtraction.
  kSplitScan = 5,    ///< Best-split bin scans (gradient / regression).
  kWalk = 6,         ///< Flat-predictor batch node walk.
  kKernelCount = 7,
};

/// True when this build/CPU can execute `level` (scalar always can).
bool LevelSupported(Level level);

/// The tier kernels dispatch to. First call resolves EAFE_SIMD and the
/// cpuid probe; later calls are one relaxed atomic load.
Level ActiveLevel();

/// Test hook: force a tier (must be LevelSupported). Property tests flip
/// between tiers to assert dispatch equivalence.
void SetActiveLevel(Level level);

/// "scalar" / "avx2".
const char* LevelName(Level level);

/// Parses a tier name ("scalar"/"avx2", as accepted in EAFE_SIMD).
/// Returns false on unknown names.
bool ParseLevel(const std::string& name, Level* out);

/// Dispatches served by `kernel` at `level` since process start (or the
/// last ResetDispatchCounts).
uint64_t DispatchCount(Kernel kernel, Level level);
void ResetDispatchCounts();

/// Short kernel id for metric names, e.g. "cws_argmin".
const char* KernelName(Kernel kernel);

/// Publishes every (kernel, level) dispatch count as a gauge
/// `eafe_simd_dispatch_<kernel>_<level>` on `gateway` — called before a
/// metrics dump so the exposition reflects the tier that actually ran.
void PublishDispatchCounts(runtime::MetricGateway* gateway);

namespace internal {
/// Bumps the (kernel, level) dispatch counter; called by kernel wrappers.
void CountDispatch(Kernel kernel, Level level);
}  // namespace internal

}  // namespace eafe::simd

#endif  // EAFE_SIMD_SIMD_H_
