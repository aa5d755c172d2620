#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

namespace eafe::runtime {
namespace {

TEST(ThreadPoolTest, StartupAndShutdown) {
  for (size_t threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
  }
}

TEST(ThreadPoolTest, ZeroThreadsResolvesToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (std::future<void>& future : futures) future.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // Destructor joins after the queue drains.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitExceptionLandsInFuture) {
  ThreadPool pool(2);
  std::future<void> future =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the throwing task.
  std::future<void> ok = pool.Submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPoolTest, WorkerIdentityOffPool) {
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  ParallelFor(&pool, kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ReductionUnderContentionIsExact) {
  ThreadPool pool(8);
  constexpr size_t kN = 100000;
  std::atomic<long long> sum{0};
  for (int repeat = 0; repeat < 5; ++repeat) {
    sum.store(0);
    ParallelFor(&pool, kN, [&](size_t begin, size_t end) {
      long long local = 0;
      for (size_t i = begin; i < end; ++i) local += static_cast<long long>(i);
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(),
              static_cast<long long>(kN) * (static_cast<long long>(kN) - 1) / 2);
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> touched(100, 0);
  ParallelFor(nullptr, touched.size(), [&](size_t begin, size_t end) {
    EXPECT_FALSE(ThreadPool::OnWorkerThread());
    for (size_t i = begin; i < end; ++i) ++touched[i];
  });
  for (int count : touched) EXPECT_EQ(count, 1);
}

TEST(ParallelForTest, NestedCallRunsInlineOnWorker) {
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  ParallelFor(&pool, 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const int outer_worker = ThreadPool::CurrentWorkerIndex();
      // Nested region must not hop threads: it runs inline on this worker.
      ParallelFor(&pool, 16, [&, outer_worker](size_t b, size_t e) {
        EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), outer_worker);
        inner.fetch_add(static_cast<int>(e - b),
                        std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(inner.load(), 8 * 16);
}

TEST(ParallelForTest, PropagatesLowestBlockException) {
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  auto throwing = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (i % 16 == 3) {  // One failure per block of 16.
        throw std::out_of_range("block " + std::to_string(i / 16));
      }
    }
  };
  try {
    ParallelFor(&pool, kN, throwing);
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "block 0");
  }
  // The pool remains usable after a failed region.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 32, [&](size_t begin, size_t end) {
    counter.fetch_add(static_cast<int>(end - begin),
                      std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(GlobalPoolTest, SerialConfigurationHasNoPool) {
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalThreads(), 1u);
  EXPECT_EQ(GlobalPool(), nullptr);
}

TEST(GlobalPoolTest, RebuildsOnSizeChange) {
  SetGlobalThreads(4);
  ThreadPool* pool = GlobalPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 4u);
  EXPECT_EQ(GlobalPool(), pool);  // Stable while the size is unchanged.
  SetGlobalThreads(2);
  ThreadPool* rebuilt = GlobalPool();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->num_threads(), 2u);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalPool(), nullptr);
}

}  // namespace
}  // namespace eafe::runtime
