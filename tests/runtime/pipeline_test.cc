#include "runtime/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace eafe::runtime {
namespace {

struct Item {
  int id = 0;
  int doubled = 0;
  int plus_one = 0;
};

void DoubleThenIncrement(Item& x) {
  x.doubled = x.id * 2;
  x.plus_one = x.doubled + 1;
}

Pipeline<Item>::Options OnPool(ThreadPool* pool) {
  Pipeline<Item>::Options options;
  options.pool = pool;
  options.name = "work";
  options.queue_capacity = 4;
  return options;
}

std::vector<Item> Drain(Pipeline<Item>& pipeline) {
  std::vector<Item> out;
  while (auto item = pipeline.NextOrdered()) out.push_back(*item);
  return out;
}

TEST(RuntimePipelineTest, InlineWhenPoolMissing) {
  Pipeline<Item> pipeline(DoubleThenIncrement, OnPool(nullptr));
  EXPECT_FALSE(pipeline.async());
  for (int i = 0; i < 5; ++i) pipeline.Submit(Item{i, 0, 0});
  pipeline.Close();
  const std::vector<Item> out = Drain(pipeline);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].id, i);
    EXPECT_EQ(out[static_cast<size_t>(i)].plus_one, i * 2 + 1);
  }
}

TEST(RuntimePipelineTest, AsyncPreservesSubmissionOrder) {
  ThreadPool pool(4);
  Pipeline<Item> pipeline(DoubleThenIncrement, OnPool(&pool));
  EXPECT_TRUE(pipeline.async());
  constexpr int kItems = 100;
  for (int i = 0; i < kItems; ++i) pipeline.Submit(Item{i, 0, 0});
  pipeline.Close();
  const std::vector<Item> out = Drain(pipeline);
  ASSERT_EQ(out.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].id, i);
    EXPECT_EQ(out[static_cast<size_t>(i)].plus_one, i * 2 + 1);
  }
}

TEST(RuntimePipelineTest, EveryPoolThreadIsAWorker) {
  // N items that each wait until all N are inside the stage at once: they
  // can only all finish if every one of the N pool threads runs the
  // stage. The wait times out, so a pipeline with fewer workers fails
  // here instead of hanging.
  constexpr size_t kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::condition_variable all_arrived;
  size_t arrived = 0;
  std::atomic<size_t> met{0};
  Pipeline<Item> pipeline(
      [&](Item&) {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        all_arrived.notify_all();
        if (all_arrived.wait_for(lock, std::chrono::seconds(20),
                                 [&] { return arrived >= kThreads; })) {
          met.fetch_add(1);
        }
      },
      OnPool(&pool));
  ASSERT_TRUE(pipeline.async());
  for (size_t i = 0; i < kThreads; ++i) {
    pipeline.Submit(Item{static_cast<int>(i), 0, 0});
  }
  pipeline.Close();
  EXPECT_EQ(Drain(pipeline).size(), kThreads);
  EXPECT_EQ(met.load(), kThreads);
}

TEST(RuntimePipelineTest, OutOfOrderCompletionIsResequenced) {
  // Three parallel workers, and the first item is by far the slowest:
  // later items finish first, but NextOrdered() must still deliver
  // submission order.
  ThreadPool pool(3);
  std::atomic<int> first_done{0};
  std::atomic<int> finished_before_first{0};
  Pipeline<Item> pipeline(
      [&](Item& x) {
        if (x.id == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          first_done.store(1);
        } else if (first_done.load() == 0) {
          finished_before_first.fetch_add(1);
        }
        x.doubled = x.id * 2;
      },
      OnPool(&pool));
  ASSERT_TRUE(pipeline.async());
  for (int i = 0; i < 8; ++i) pipeline.Submit(Item{i, 0, 0});
  pipeline.Close();
  const std::vector<Item> out = Drain(pipeline);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].id, i);
  }
  // The slow head did not stop the other workers from finishing first —
  // i.e. the order above really was restored from out-of-order
  // completion, not produced serially.
  EXPECT_GT(finished_before_first.load(), 0);
}

TEST(RuntimePipelineTest, BackpressureBoundsWorkInFlight) {
  // One worker blocked inside the stage, a 2-slot queue: a producer
  // pushing five items must stall after 1 (in the stage) + 2 (queued),
  // and resume once the gate opens.
  ThreadPool stage_pool(1);
  ThreadPool producer_pool(1);
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  Pipeline<Item>::Options options = OnPool(&stage_pool);
  options.queue_capacity = 2;
  Pipeline<Item> pipeline(
      [&](Item&) {
        entered.fetch_add(1);
        while (!gate.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      options);
  ASSERT_TRUE(pipeline.async());

  std::atomic<bool> producer_done{false};
  std::future<void> producer = producer_pool.Submit([&] {
    for (int i = 0; i < 5; ++i) pipeline.Submit(Item{i, 0, 0});
    pipeline.Close();
    producer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(producer_done.load());  // Stalled on the full queue.
  EXPECT_EQ(entered.load(), 1);        // Only the in-stage item started.
  gate.store(true);
  const std::vector<Item> out = Drain(pipeline);
  producer.wait();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(entered.load(), 5);
}

TEST(RuntimePipelineTest, DrainAfterCloseEndsWithNullopt) {
  ThreadPool pool(2);
  Pipeline<Item> pipeline([](Item&) {}, OnPool(&pool));
  pipeline.Submit(Item{1, 0, 0});
  pipeline.Submit(Item{2, 0, 0});
  pipeline.Close();
  EXPECT_TRUE(pipeline.NextOrdered().has_value());
  EXPECT_TRUE(pipeline.NextOrdered().has_value());
  EXPECT_FALSE(pipeline.NextOrdered().has_value());
  EXPECT_FALSE(pipeline.NextOrdered().has_value());  // Stays ended.
}

TEST(RuntimePipelineTest, EmptyPipelineClosesClean) {
  ThreadPool pool(2);
  Pipeline<Item> pipeline([](Item&) {}, OnPool(&pool));
  pipeline.Close();
  EXPECT_FALSE(pipeline.NextOrdered().has_value());
}

TEST(RuntimePipelineTest, ProducerParallelForRunsInline) {
  // The workers hold all four pool threads. A ParallelFor from the
  // producer between Submit()s must run inline; fanned out, its blocks
  // would queue behind the workers, which wait for Close(), and hang.
  ThreadPool pool(4);
  Pipeline<Item> pipeline(DoubleThenIncrement, OnPool(&pool));
  ASSERT_TRUE(pipeline.async());
  constexpr int kItems = 20;
  std::vector<long long> sums;
  for (int i = 0; i < kItems; ++i) {
    pipeline.Submit(Item{i, 0, 0});
    long long sum = 0;
    ParallelFor(&pool, 64, [&](size_t begin, size_t end) {
      EXPECT_FALSE(ThreadPool::OnWorkerThread());
      EXPECT_EQ(begin, 0u);  // One inline block, not four.
      for (size_t k = begin; k < end; ++k) sum += static_cast<long long>(k);
    });
    sums.push_back(sum);
  }
  pipeline.Close();
  const std::vector<Item> out = Drain(pipeline);
  ASSERT_EQ(out.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].id, i);
    EXPECT_EQ(out[static_cast<size_t>(i)].plus_one, i * 2 + 1);
    EXPECT_EQ(sums[static_cast<size_t>(i)], 64 * 63 / 2);
  }
}

TEST(RuntimePipelineTest, ProducerFansOutAgainOncePipelineIsGone) {
  // The producer's inline rule lasts only as long as the pipeline.
  ThreadPool pool(4);
  {
    Pipeline<Item> pipeline([](Item&) {}, OnPool(&pool));
    ASSERT_TRUE(pipeline.async());
    pipeline.Submit(Item{});
    pipeline.Close();
    Drain(pipeline);
  }
  std::atomic<int> on_workers{0};
  ParallelFor(&pool, 4, [&](size_t, size_t) {
    if (ThreadPool::OnWorkerThread()) on_workers.fetch_add(1);
  });
  EXPECT_EQ(on_workers.load(), 3);
}

TEST(RuntimePipelineTest, DestructorJoinsWithoutDrain) {
  // Dropping a pipeline without draining must not hang or leak workers.
  ThreadPool pool(2);
  Pipeline<Item> pipeline([](Item& x) { x.doubled = x.id; }, OnPool(&pool));
  for (int i = 0; i < 10; ++i) pipeline.Submit(Item{i, 0, 0});
  // No Close(), no Drain: the destructor closes and joins.
}

}  // namespace
}  // namespace eafe::runtime
