#ifndef EAFE_RUNTIME_THREAD_POOL_H_
#define EAFE_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace eafe::runtime {

class MetricCounter;
class MetricGauge;

/// Fixed-size worker pool with a FIFO task queue — the shared execution
/// substrate for candidate evaluation, cross-validation folds, and
/// per-tree forest training.
///
/// Determinism contract: the pool itself never introduces randomness into
/// results. Work that feeds a reduction must be partitioned statically
/// (see ParallelFor) and reduced in index order, never in completion
/// order; result-affecting randomness must be pre-drawn serially by the
/// caller.
class ThreadPool {
 public:
  /// `num_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads);
  /// Drains the queue (queued tasks still run), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. The returned future completes when the task
  /// finishes and carries any exception the task threw; discarding the
  /// future is safe (fire-and-forget).
  std::future<void> Submit(std::function<void()> task);

  /// Index of the calling pool worker in [0, num_threads), or -1 when the
  /// caller is not a worker of any ThreadPool.
  static int CurrentWorkerIndex();

  /// True when called from any ThreadPool worker thread. ParallelFor uses
  /// this to run nested parallel regions inline instead of oversubscribing
  /// (folds submit, trees run inline).
  static bool OnWorkerThread();

 private:
  void WorkerMain(size_t index);

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  /// Occupancy instruments, captured from GlobalMetrics() at
  /// construction (no-ops unless a recording gateway is installed
  /// first); owned by the gateway.
  MetricCounter* tasks_total_;
  MetricGauge* busy_workers_;
};

/// Runs fn(begin, end) over a static contiguous partition of [0, n): block
/// b of B covers [b*n/B, (b+1)*n/B) with B = min(pool workers, n). The
/// partition depends only on (n, pool size), so writes indexed by the loop
/// variable and reductions folded in index order are deterministic at any
/// thread count.
///
/// Runs the whole range inline on the caller when `pool` is null, has one
/// worker, n <= 1, or the call is nested inside another parallel region —
/// on a pool worker, or inside the caller-executed block 0. Nested
/// parallelism runs serially rather than oversubscribing the fixed pool.
/// The caller always executes block 0 itself. Blocks until every block
/// finishes; rethrows the exception of the lowest-indexed failing block.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn);

/// ParallelFor with a minimum block size: at most n / min_block blocks are
/// spawned (always at least one), so cheap per-item work — e.g. one
/// feature's histogram accumulation over a small node — is batched instead
/// of paying one queue round-trip per handful of items. min_block affects
/// scheduling only, never the set of (begin, end) pairs' union, so results
/// stay deterministic under the same static-partition contract.
void ParallelFor(ThreadPool* pool, size_t n, size_t min_block,
                 const std::function<void(size_t, size_t)>& fn);

/// Configures the process-wide pool size used by GlobalPool(); 0 means
/// hardware_concurrency. Takes effect on the next GlobalPool() call, which
/// rebuilds the pool if the size changed — call only between parallel
/// regions (binary startup, tests, benches), never concurrently with work.
void SetGlobalThreads(size_t num_threads);

/// The configured global thread count with 0 resolved to the hardware
/// default (never returns 0).
size_t GlobalThreads();

/// Lazily-created process-wide pool shared by every parallel region, or
/// null when the configured size is 1: the serial path spawns no threads
/// at all and is bit-identical to a pool-free build.
ThreadPool* GlobalPool();

}  // namespace eafe::runtime

#endif  // EAFE_RUNTIME_THREAD_POOL_H_
