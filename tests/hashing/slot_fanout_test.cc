// The MinHash slot fan-out and the selection memo (DESIGN.md §9):
// WeightedMinHashSelect spreads the full scans of ICWS, PCWS and LICWS,
// an unlisted CCWS selection and a candidate list's build over the
// global pool from an off-pool caller and runs them inline on a pool
// worker; a listed CCWS selection always runs inline. Compress takes its
// uniform companion rows from the same per-length memo. All of it must
// return the serial result bit for bit, wherever it is called from.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "core/rng.h"
#include "hashing/sample_compressor.h"
#include "hashing/weighted_minhash.h"
#include "runtime/metric_names.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "simd/minhash_kernels.h"
#include "simd/simd.h"
#include "tests/hashing/selection_memo_test_util.h"

namespace eafe::hashing {
namespace {

constexpr size_t kLengths[] = {1, 2, 47, 1500, 8000};

std::vector<double> NormalColumn(size_t n, uint64_t seed) {
  Rng rng(seed * 7919 + n);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Normal(1.0, 2.0);
  return values;
}

/// Everything one column produces: the slot selections of every CWS
/// scheme, the all-zero fallback's, and the FPE signature.
struct Outputs {
  std::vector<std::vector<size_t>> selections;
  std::vector<double> signature;

  bool operator==(const Outputs& other) const {
    return selections == other.selections && signature == other.signature;
  }
};

Outputs Compute(const std::vector<double>& values) {
  const std::vector<double> weights =
      SampleCompressor::NormalizeWeights(values).ValueOrDie();
  Outputs out;
  for (MinHashScheme scheme :
       {MinHashScheme::kIcws, MinHashScheme::kCcws, MinHashScheme::kPcws,
        MinHashScheme::kLicws}) {
    out.selections.push_back(WeightedMinHashSelect(scheme, weights, 48, 5));
  }
  out.selections.push_back(WeightedMinHashSelect(
      MinHashScheme::kCcws, std::vector<double>(values.size(), 0.0), 48, 5));
  out.signature = SampleCompressor().Compress(values).ValueOrDie();
  return out;
}

/// Compute() run from inside a task of a separate pool: ParallelFor sees
/// a pool worker and runs the slots inline.
Outputs ComputeOnPoolWorker(const std::vector<double>& values) {
  runtime::ThreadPool pool(2);
  Outputs out;
  pool.Submit([&] {
        EXPECT_TRUE(runtime::ThreadPool::OnWorkerThread());
        out = Compute(values);
      })
      .get();
  return out;
}

TEST(SlotFanOutTest, IdenticalAtAnyThreadCountAndCaller) {
  for (size_t n : kLengths) {
    const std::vector<double> values = NormalColumn(n, 1);
    runtime::SetGlobalThreads(1);
    const Outputs serial = Compute(values);
    const Outputs serial_on_worker = ComputeOnPoolWorker(values);
    runtime::SetGlobalThreads(4);
    const Outputs fanned = Compute(values);
    const Outputs fanned_on_worker = ComputeOnPoolWorker(values);
    runtime::SetGlobalThreads(1);
    EXPECT_TRUE(serial == serial_on_worker) << "n=" << n;
    EXPECT_TRUE(serial == fanned) << "n=" << n;
    EXPECT_TRUE(serial == fanned_on_worker) << "n=" << n;
    ASSERT_EQ(serial.signature.size(), 96u);
  }
}

/// Pool tasks the global pool runs while `work` executes. The pool is
/// built after the gateway is installed, so it counts into it, and
/// destroyed before the count is read, so every task has been counted.
uint64_t GlobalPoolTasksDuring(const std::function<void()>& work) {
  runtime::TextMetricGateway gateway;
  runtime::SetGlobalMetrics(&gateway);
  runtime::SetGlobalThreads(1);
  (void)runtime::GlobalPool();  // Drop a pool built before the gateway.
  runtime::SetGlobalThreads(4);
  (void)runtime::GlobalPool();
  work();
  runtime::SetGlobalThreads(1);
  (void)runtime::GlobalPool();
  runtime::SetGlobalMetrics(nullptr);
  return gateway.Counter(runtime::metric_names::kPoolTasksTotal, "")
      ->Value();
}

TEST(SlotFanOutTest, FansOutOnlyOffPoolForLongColumns) {
  const std::vector<double> long_weights =
      SampleCompressor::NormalizeWeights(NormalColumn(8000, 2)).ValueOrDie();
  const std::vector<double> short_weights =
      SampleCompressor::NormalizeWeights(NormalColumn(47, 2)).ValueOrDie();
  const auto select = [](MinHashScheme scheme,
                         const std::vector<double>& weights) {
    (void)WeightedMinHashSelect(scheme, weights, 48, 9);
  };
  // Off the pool, a long column's 48 ICWS full scans go out as 4 blocks:
  // the caller runs one, pool workers the other three.
  EXPECT_EQ(GlobalPoolTasksDuring(
                [&] { select(MinHashScheme::kIcws, long_weights); }),
            3u);
  // CCWS: the first selection of a length has no list and spreads its
  // kernel scans the same way, the second spreads the build of the
  // length's list, and a listed selection runs inline.
  EmptySelectionMemo();
  for (const uint64_t tasks : {3u, 3u, 0u}) {
    EXPECT_EQ(GlobalPoolTasksDuring(
                  [&] { select(MinHashScheme::kCcws, long_weights); }),
              tasks);
  }
  // A short column, or any column on a pool worker, stays inline. The
  // other pool is built first, so its own task is not counted.
  runtime::ThreadPool other(1);
  EXPECT_EQ(GlobalPoolTasksDuring([&] {
              select(MinHashScheme::kIcws, short_weights);
              other.Submit([&] { select(MinHashScheme::kIcws, long_weights); })
                  .get();
            }),
            0u);
}

uint64_t PlainArgmins() {
  return simd::DispatchCount(simd::Kernel::kPlainArgmin,
                             simd::Level::kScalar) +
         simd::DispatchCount(simd::Kernel::kPlainArgmin, simd::Level::kAvx2);
}

TEST(UniformRowMemoTest, SecondCompressOfALengthHashesNoRows) {
  const SampleCompressor compressor;
  constexpr size_t kRows = 3217;  // A length no other test compresses.
  ASSERT_TRUE(compressor.Compress(NormalColumn(kRows, 1)).ok());
  simd::ResetDispatchCounts();
  ASSERT_TRUE(compressor.Compress(NormalColumn(kRows, 2)).ok());
  // The uniform rows come from the memo: no plain argmin at all, where
  // recomputing them costs one per uniform slot.
  EXPECT_EQ(PlainArgmins(), 0u);
}

TEST(UniformRowMemoTest, RowsEqualDirectPlainHashArgmin) {
  const uint64_t seeds[] = {uint64_t{13} ^ 0xA5A5A5A5ULL, 77};
  for (const uint64_t seed : seeds) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{47}, size_t{1500},
                     size_t{8000}}) {
      for (int pass = 0; pass < 2; ++pass) {  // Cold, then memoized.
        const std::vector<size_t> rows = UniformSlotRows(n, seed, 48);
        ASSERT_EQ(rows.size(), 48u);
        for (size_t j = 0; j < rows.size(); ++j) {
          EXPECT_EQ(rows[j], simd::PlainHashArgmin(nullptr, n, seed, j))
              << "n=" << n << " seed=" << seed << " slot=" << j;
        }
      }
    }
  }
  // A different slot count for a memoized (rows, seed) is its own entry.
  EXPECT_EQ(UniformSlotRows(1500, 77, 16).size(), 16u);
  EXPECT_EQ(UniformSlotRows(1500, 77, 48).size(), 48u);
}

TEST(UniformRowMemoTest, ConcurrentCompressOfDifferentLengths) {
  // More lengths than the memo holds, compressed from four pool tasks at
  // once, each checked against the same call made serially up front.
  const SampleCompressor compressor;
  std::vector<std::vector<double>> columns;
  std::vector<std::vector<double>> expected;
  for (size_t i = 0; i < 12; ++i) {
    columns.push_back(NormalColumn(200 + 97 * i, i));
    expected.push_back(compressor.Compress(columns.back()).ValueOrDie());
  }
  runtime::ThreadPool pool(4);
  std::vector<std::future<void>> done;
  std::vector<std::vector<double>> got(4 * columns.size());
  for (size_t t = 0; t < 4; ++t) {
    done.push_back(pool.Submit([&, t] {
      for (size_t r = 0; r < columns.size(); ++r) {
        const size_t i = (r + 3 * t) % columns.size();
        got[t * columns.size() + i] =
            compressor.Compress(columns[i]).ValueOrDie();
      }
    }));
  }
  for (std::future<void>& future : done) future.get();
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], expected[k % columns.size()]) << "entry " << k;
  }
}

/// Compress's result computed without the memo: per CCWS slot the
/// full-scan oracle's row, per uniform slot PlainHashArgmin's.
std::vector<double> UnmemoizedSignature(const CompressorOptions& options,
                                        const std::vector<double>& values) {
  const std::vector<double> w =
      SampleCompressor::NormalizeWeights(values).ValueOrDie();
  std::vector<double> ccws;
  for (size_t j = 0; j < options.dimension; ++j) {
    ccws.push_back(w[simd::internal::CwsArgminScalar(
        simd::CwsKernelScheme::kCcws, w.data(), nullptr, w.size(),
        options.seed, j)]);
  }
  std::vector<double> uniform;
  for (size_t j = 0; j < options.dimension; ++j) {
    uniform.push_back(w[simd::PlainHashArgmin(
        nullptr, w.size(), options.seed ^ 0xA5A5A5A5ULL, j)]);
  }
  std::sort(ccws.begin(), ccws.end());
  std::sort(uniform.begin(), uniform.end());
  ccws.insert(ccws.end(), uniform.begin(), uniform.end());
  return ccws;
}

TEST(SelectionMemoTest, ConcurrentCompressOfOneFreshLength) {
  // Four pool tasks meet a length no call has seen: their first and
  // second sightings, the list build and the listed reads race.
  EmptySelectionMemo();
  const CompressorOptions options;
  const SampleCompressor compressor(options);
  constexpr size_t kRows = 1933;  // A length no other test compresses.
  std::vector<std::vector<double>> columns;
  std::vector<std::vector<double>> expected;
  for (uint64_t i = 0; i < 6; ++i) {
    columns.push_back(NormalColumn(kRows, 40 + i));
    expected.push_back(UnmemoizedSignature(options, columns.back()));
  }
  runtime::ThreadPool pool(4);
  std::vector<std::future<void>> done;
  std::vector<std::vector<double>> got(4 * columns.size());
  for (size_t t = 0; t < 4; ++t) {
    done.push_back(pool.Submit([&, t] {
      for (size_t r = 0; r < columns.size(); ++r) {
        const size_t i = (r + t) % columns.size();
        got[t * columns.size() + i] =
            compressor.Compress(columns[i]).ValueOrDie();
      }
    }));
  }
  for (std::future<void>& future : done) future.get();
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], expected[k % columns.size()]) << "entry " << k;
  }
}

TEST(SelectionMemoTest, NeverHoldsMoreListsThanItsCap) {
  // Twice as many lengths as the memo has lists, each compressed twice
  // (the second builds its list while a slot is free), from four pool
  // tasks at once.
  EmptySelectionMemo();
  CompressorOptions options;
  options.dimension = 8;
  const SampleCompressor compressor(options);
  std::vector<std::vector<double>> columns;
  for (size_t i = 0; i < 2 * kMaxCcwsLists; ++i) {
    columns.push_back(NormalColumn(300 + 31 * i, i));
  }
  runtime::ThreadPool pool(4);
  std::atomic<size_t> most_held{0};
  std::vector<std::future<void>> done;
  for (size_t t = 0; t < 4; ++t) {
    done.push_back(pool.Submit([&, t] {
      for (size_t r = 0; r < 2 * columns.size(); ++r) {
        const size_t i = (r / 2 + 5 * t) % columns.size();
        ASSERT_TRUE(compressor.Compress(columns[i]).ok());
        const size_t held = CcwsListsHeld();
        size_t seen = most_held.load();
        while (held > seen && !most_held.compare_exchange_weak(seen, held)) {
        }
      }
    }));
  }
  for (std::future<void>& future : done) future.get();
  EXPECT_LE(most_held.load(), kMaxCcwsLists);
  EXPECT_GE(CcwsListsHeld(), 1u);
}

uint64_t CwsArgmins() {
  return simd::DispatchCount(simd::Kernel::kCwsArgmin, simd::Level::kScalar) +
         simd::DispatchCount(simd::Kernel::kCwsArgmin, simd::Level::kAvx2);
}

TEST(SelectionMemoTest, KeepsListsInUseWhenLengthsOutnumberSlots) {
  // Twice as many recurring lengths as list slots, interleaved: the
  // first kMaxCcwsLists to recur take the slots and keep them, and the
  // rest run the kernel instead of rebuilding lists in turn.
  EmptySelectionMemo();
  CompressorOptions options;
  options.dimension = 8;
  const SampleCompressor compressor(options);
  std::vector<std::vector<double>> columns;
  for (size_t i = 0; i < 2 * kMaxCcwsLists; ++i) {
    columns.push_back(
        SampleCompressor::NormalizeWeights(NormalColumn(700 + 13 * i, i))
            .ValueOrDie());
  }
  for (int pass = 0; pass < 2; ++pass) {  // Sighted, then recurring.
    for (const std::vector<double>& column : columns) {
      ASSERT_TRUE(compressor.Compress(column).ok());
    }
  }
  EXPECT_EQ(CcwsListsHeld(), kMaxCcwsLists);
  for (size_t i = 0; i < columns.size(); ++i) {
    simd::ResetDispatchCounts();
    ASSERT_TRUE(compressor.Compress(columns[i]).ok());
    if (i < kMaxCcwsLists) {
      EXPECT_LT(CwsArgmins(), options.dimension) << "listed length " << i;
    } else {
      EXPECT_EQ(CwsArgmins(), options.dimension) << "unlisted length " << i;
    }
  }
  EXPECT_EQ(CcwsListsHeld(), kMaxCcwsLists);
}

TEST(SelectionMemoTest, DropsListsOfLengthsNoLongerCompressed) {
  // A process that has moved on to one length (a search after FPE
  // pretraining) keeps only that length's list.
  EmptySelectionMemo();
  CompressorOptions options;
  options.dimension = 8;
  const SampleCompressor compressor(options);
  for (size_t rows : {size_t{611}, size_t{612}, size_t{613}}) {
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE(compressor.Compress(NormalColumn(rows, 1)).ok());
    }
  }
  EXPECT_GE(CcwsListsHeld(), 3u);
  const std::vector<double> column = NormalColumn(614, 2);
  const std::vector<double> first = compressor.Compress(column).ValueOrDie();
  for (int pass = 0; pass < 300; ++pass) {
    ASSERT_EQ(compressor.Compress(column).ValueOrDie(), first);
  }
  EXPECT_EQ(CcwsListsHeld(), 1u);
}

}  // namespace
}  // namespace eafe::hashing
