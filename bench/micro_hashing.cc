// Micro-benchmarks (google-benchmark) for the hashing substrate: the
// per-candidate FPE cost is one Compress call, so its throughput bounds
// how many candidates per second the pre-evaluation can filter.

// `--simd` / `--simd-smoke` bypass google-benchmark and emit one JSON
// line per (scheme, rows, tier, kernel) for the weighted-MinHash argmin:
// a 48-slot signature through each kernel variant, timed against the
// scalar full scan (the oracle). The smoke variant exits nonzero unless
// every variant returns the oracle's signature and the AVX2 variants
// clear their speed floors at rows >= 10k; tools/check.sh runs it in
// the release suite, and BENCH_simd.json snapshots the grid rows.
//
// Both then time the FPE compression: one SampleCompressor::Compress (48
// CCWS slots plus 48 uniform slots), cold (the first Compress of a
// length, before its CCWS candidate list and uniform rows are memoized)
// and warm (every later Compress of the length, which reads them).
// Timing is report-only; the smoke variant exits nonzero unless the warm
// signature equals the cold one bit for bit. A host line (nproc, SIMD
// tier, build type, wall clock) closes the run.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "hashing/minhash.h"
#include "hashing/sample_compressor.h"
#include "hashing/weighted_minhash.h"
#include "runtime/thread_pool.h"
#include "simd/minhash_kernels.h"
#include "simd/portable_math.h"
#include "simd/simd.h"

namespace eafe::hashing {
namespace {

std::vector<double> RandomFeature(size_t n, uint64_t seed = 17) {
  Rng rng(n * 2654435761u + seed);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Normal();
  return values;
}

void BM_Compress(benchmark::State& state, MinHashScheme scheme) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dimension = static_cast<size_t>(state.range(1));
  CompressorOptions options;
  options.scheme = scheme;
  options.dimension = dimension;
  SampleCompressor compressor(options);
  const std::vector<double> feature = RandomFeature(rows);
  for (auto _ : state) {
    auto signature = compressor.Compress(feature);
    benchmark::DoNotOptimize(signature);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}

void RegisterAll() {
  for (MinHashScheme scheme : AllMinHashSchemes()) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_Compress/" + MinHashSchemeToString(scheme)).c_str(),
        [scheme](benchmark::State& state) { BM_Compress(state, scheme); });
    bench->Args({256, 48})->Args({1024, 48})->Args({1024, 16});
  }
}

void BM_GeneralizedJaccard(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a = RandomFeature(n, 1);
  std::vector<double> b = RandomFeature(n, 2);
  for (double& v : a) v = std::fabs(v);
  for (double& v : b) v = std::fabs(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneralizedJaccard(a, b));
  }
}
BENCHMARK(BM_GeneralizedJaccard)->Arg(1024)->Arg(16384);

// --- SIMD dispatch rows (--simd / --simd-smoke) ------------------------

/// Sparse nonnegative weights (~1/4 exact zeros), the shape the
/// thresholded sampling-vector path feeds the argmin kernel.
std::vector<double> SimdWeights(size_t rows) {
  Rng rng(rows * 2654435761u + 5);
  std::vector<double> weights(rows);
  for (double& w : weights) {
    const double u = rng.Uniform(0.0, 1.0);
    w = u < 0.25 ? 0.0 : u * 8.0;
  }
  weights[rows / 2] = 1.0;  // At least one positive entry.
  return weights;
}

/// One argmin kernel variant as the grid names it.
struct KernelVariant {
  const char* level;   ///< Dispatch tier the variant belongs to.
  const char* kernel;  ///< "full_scan" or "pruned".
  size_t (*argmin)(simd::CwsKernelScheme, const double*, const double*,
                   size_t, uint64_t, uint64_t);
};

size_t PrunedScalar(simd::CwsKernelScheme, const double* weights,
                    const double*, size_t n, uint64_t seed, uint64_t slot) {
  return simd::internal::CcwsArgminPrunedScalar(weights, n, seed, slot);
}

size_t PrunedAvx2(simd::CwsKernelScheme, const double* weights,
                  const double*, size_t n, uint64_t seed, uint64_t slot) {
  return simd::internal::CcwsArgminPrunedAvx2(weights, n, seed, slot);
}

/// Best-of-5 time of one signature (`dimension` slots) through one
/// kernel variant; the first pass's selections land in `signature`.
double TimeSignature(const KernelVariant& variant,
                     simd::CwsKernelScheme scheme,
                     const std::vector<double>& weights,
                     const std::vector<double>& logs, size_t dimension,
                     std::vector<size_t>* signature) {
  double best = 0.0;
  for (int r = 0; r < 5; ++r) {
    std::vector<size_t> selected(dimension);
    eafe::Stopwatch timer;
    for (size_t j = 0; j < dimension; ++j) {
      selected[j] = variant.argmin(scheme, weights.data(), logs.data(),
                                   weights.size(), 77, j);
    }
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < best) best = seconds;
    if (r == 0) *signature = std::move(selected);
  }
  return best;
}

void PrintSimdRow(MinHashScheme scheme, size_t rows, size_t dimension,
                  const KernelVariant& variant, double seconds,
                  double speedup) {
  std::printf(
      "{\"bench\": \"simd_minhash\", \"scheme\": \"%s\", \"rows\": %zu, "
      "\"dimension\": %zu, \"level\": \"%s\", \"kernel\": \"%s\", "
      "\"seconds\": %.6f, \"speedup_vs_oracle\": %.2f}\n",
      MinHashSchemeToString(scheme).c_str(), rows, dimension, variant.level,
      variant.kernel, seconds, speedup);
}

/// Emits the grid: per scheme and size, the scalar full scan (the
/// oracle) first, then every other variant with its speedup over it.
/// The smoke variant exits nonzero unless every variant returns the
/// oracle's signature, pruned AVX2 CCWS runs >= 2x the oracle and AVX2
/// ICWS >= 1.2x at rows >= 10k.
int RunSimdRows(bool smoke) {
  const size_t dimension = 48;
  const bool have_avx2 = simd::LevelSupported(simd::Level::kAvx2);
  if (!have_avx2) {
    std::fprintf(stderr,
                 "note: AVX2 unsupported on this CPU — scalar rows only, "
                 "smoke speed gates vacuous\n");
  }
  const KernelVariant oracle = {"scalar", "full_scan",
                                simd::internal::CwsArgminScalar};
  const KernelVariant full_avx2 = {"avx2", "full_scan",
                                   simd::internal::CwsArgminAvx2};
  const KernelVariant pruned_scalar = {"scalar", "pruned", PrunedScalar};
  const KernelVariant pruned_avx2 = {"avx2", "pruned", PrunedAvx2};
  struct Grid {
    MinHashScheme scheme;
    simd::CwsKernelScheme kernel_scheme;
    std::vector<KernelVariant> variants;
    double gate;  ///< Required avx2 speedup over the oracle at >= 10k.
  };
  const Grid grids[] = {
      {MinHashScheme::kIcws, simd::CwsKernelScheme::kIcws, {full_avx2},
       1.2},
      {MinHashScheme::kCcws, simd::CwsKernelScheme::kCcws,
       {pruned_scalar, pruned_avx2}, 2.0},
  };
  bool ok = true;
  for (const Grid& grid : grids) {
    for (const size_t rows : {size_t{4096}, size_t{16384}}) {
      const std::vector<double> weights = SimdWeights(rows);
      std::vector<double> logs(rows, 0.0);
      for (size_t k = 0; k < rows; ++k) {
        if (weights[k] > 0.0) logs[k] = simd::PortableLog(weights[k]);
      }
      std::vector<size_t> oracle_sig;
      const double oracle_seconds =
          TimeSignature(oracle, grid.kernel_scheme, weights, logs,
                        dimension, &oracle_sig);
      PrintSimdRow(grid.scheme, rows, dimension, oracle, oracle_seconds,
                   1.0);
      for (const KernelVariant& variant : grid.variants) {
        const bool avx2 = std::strcmp(variant.level, "avx2") == 0;
        if (avx2 && !have_avx2) continue;
        std::vector<size_t> sig;
        const double seconds = TimeSignature(
            variant, grid.kernel_scheme, weights, logs, dimension, &sig);
        const double speedup = seconds > 0.0 ? oracle_seconds / seconds
                                             : 0.0;
        PrintSimdRow(grid.scheme, rows, dimension, variant, seconds,
                     speedup);
        if (sig != oracle_sig) {
          std::fprintf(stderr,
                       "simd smoke FAILED: %s %s/%s signature differs from "
                       "the full-scan oracle at rows=%zu\n",
                       MinHashSchemeToString(grid.scheme).c_str(),
                       variant.level, variant.kernel, rows);
          ok = false;
        }
        if (smoke && avx2 && rows >= 10000 && speedup < grid.gate) {
          std::fprintf(stderr,
                       "simd smoke FAILED: %s %s/%s speedup %.2fx < %.1fx "
                       "at rows=%zu\n",
                       MinHashSchemeToString(grid.scheme).c_str(),
                       variant.level, variant.kernel, speedup, grid.gate,
                       rows);
          ok = false;
        }
      }
    }
  }
  return ok ? 0 : 1;
}

constexpr int kCompressReps = 41;

/// Best of kCompressReps seconds of `compress(r)` over r = 0, 1, ...
template <typename Fn>
double BestSeconds(const Fn& compress) {
  double best = 0.0;
  for (int r = 0; r < kCompressReps; ++r) {
    Stopwatch timer;
    auto timed = compress(r);
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < best) best = seconds;
    benchmark::DoNotOptimize(timed);
  }
  return best;
}

/// Compress lines: one signature of a normal column as the FPE computes
/// it (CCWS, d = 48, 48 uniform slots), best of 41 on one thread. The
/// cold line times first sights, each of a fresh length just above
/// `rows` whose column is drawn before the clock starts; the warm line
/// times a length whose second Compress built its list. Returns false
/// when the warm signature differs from the cold one.
bool RunCompressRows() {
  const CompressorOptions options;
  const SampleCompressor compressor(options);
  bool identical = true;
  for (const size_t rows : {size_t{1500}, size_t{8000}}) {
    std::vector<std::vector<double>> fresh;
    for (int r = 0; r < kCompressReps; ++r) {
      fresh.push_back(RandomFeature(rows + 1 + static_cast<size_t>(r)));
    }
    const double cold = BestSeconds([&](int r) {
      return compressor.Compress(fresh[static_cast<size_t>(r)]);
    });
    const std::vector<double> feature = RandomFeature(rows);
    const std::vector<double> unlisted =
        compressor.Compress(feature).ValueOrDie();
    (void)compressor.Compress(feature);  // Builds the list.
    const double warm =
        BestSeconds([&](int) { return compressor.Compress(feature); });
    const std::vector<double> listed =
        compressor.Compress(feature).ValueOrDie();
    if (listed.size() != unlisted.size() ||
        std::memcmp(listed.data(), unlisted.data(),
                    listed.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "simd smoke FAILED: warm Compress differs from cold at "
                   "rows=%zu\n",
                   rows);
      identical = false;
    }
    for (const auto& [memo, seconds] :
         {std::pair<const char*, double>{"cold", cold}, {"warm", warm}}) {
      std::printf(
          "{\"bench\": \"compress\", \"scheme\": \"ccws\", \"rows\": %zu, "
          "\"dimension\": %zu, \"uniform_slots\": %zu, \"memo\": \"%s\", "
          "\"seconds\": %.6f}\n",
          rows, options.dimension, options.dimension, memo,
          seconds);
    }
  }
  return identical;
}

/// Closing line: the host the run measured (hardware threads, the
/// global pool size every line ran at, the dispatched SIMD tier, the
/// build type) and the run's wall clock.
void PrintHostLine(double seconds) {
  std::printf(
      "{\"bench\": \"host\", \"nproc\": %u, \"threads\": 1, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"seconds\": %.1f}\n",
      std::thread::hardware_concurrency(),
      simd::LevelName(simd::ActiveLevel()), EAFE_BENCH_BUILD_TYPE, seconds);
}

int RunSimd(bool smoke) {
  // An unlisted selection and a list build spread over the global pool;
  // every line here times one thread.
  runtime::SetGlobalThreads(1);
  Stopwatch wall;
  const int grid = RunSimdRows(smoke);
  const bool identical = RunCompressRows();
  PrintHostLine(wall.ElapsedSeconds());
  return grid == 0 && identical ? 0 : 1;
}

}  // namespace
}  // namespace eafe::hashing

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--simd") == 0) {
      return eafe::hashing::RunSimd(/*smoke=*/false);
    }
    if (std::strcmp(argv[i], "--simd-smoke") == 0) {
      return eafe::hashing::RunSimd(/*smoke=*/true);
    }
  }
  eafe::hashing::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
