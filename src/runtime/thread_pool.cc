#include "runtime/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "runtime/metrics.h"

namespace eafe::runtime {
namespace {

// Worker identity for the calling thread; -1 off-pool.
thread_local int tls_worker_index = -1;
// True while the calling thread runs block 0 of a region. That block runs
// on the caller, which may not be a pool worker; the flag makes regions
// nested under it run inline too instead of re-fanning out.
thread_local bool tls_in_block0 = false;

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : tasks_total_(GlobalMetrics()->Counter(
          "eafe_pool_tasks_total", "Tasks executed by pool workers")),
      busy_workers_(GlobalMetrics()->Gauge(
          "eafe_pool_busy_workers", "Pool workers currently running a task")) {
  const size_t count = ResolveThreads(num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerMain(size_t index) {
  tls_worker_index = static_cast<int>(index);
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) break;  // shutdown_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    busy_workers_->Add(1.0);
    task();  // Exceptions land in the task's future.
    busy_workers_->Add(-1.0);
    tasks_total_->Increment();
  }
  tls_worker_index = -1;
}

int ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

bool ThreadPool::OnWorkerThread() { return tls_worker_index >= 0; }

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn) {
  ParallelFor(pool, n, 1, fn);
}

void ParallelFor(ThreadPool* pool, size_t n, size_t min_block,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (min_block == 0) min_block = 1;
  const size_t max_blocks = std::max<size_t>(n / min_block, 1);
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1 ||
      max_blocks <= 1 || ThreadPool::OnWorkerThread() || tls_in_block0) {
    fn(0, n);
    return;
  }
  const size_t blocks = std::min({pool->num_threads(), n, max_blocks});
  std::vector<std::future<void>> futures;
  futures.reserve(blocks - 1);
  for (size_t b = 1; b < blocks; ++b) {
    const size_t begin = b * n / blocks;
    const size_t end = (b + 1) * n / blocks;
    futures.push_back(pool->Submit([&fn, begin, end] { fn(begin, end); }));
  }
  // The caller owns block 0. Its exception must not unwind past the
  // remote blocks, which still reference fn.
  std::exception_ptr first;
  tls_in_block0 = true;
  try {
    fn(0, n / blocks);
  } catch (...) {
    first = std::current_exception();
  }
  tls_in_block0 = false;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

namespace {

struct GlobalPoolState {
  std::mutex mutex;
  size_t configured = 0;  // 0 = hardware default.
  size_t built_size = 0;
  std::unique_ptr<ThreadPool> pool;
};

GlobalPoolState& GlobalState() {
  static GlobalPoolState* state = new GlobalPoolState();
  return *state;
}

}  // namespace

void SetGlobalThreads(size_t num_threads) {
  GlobalPoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.configured = num_threads;
}

size_t GlobalThreads() {
  GlobalPoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  return ResolveThreads(state.configured);
}

ThreadPool* GlobalPool() {
  GlobalPoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mutex);
  const size_t resolved = ResolveThreads(state.configured);
  if (resolved <= 1) {
    state.pool.reset();
    state.built_size = 0;
    return nullptr;
  }
  if (state.pool == nullptr || state.built_size != resolved) {
    state.pool.reset();  // Join the old workers before rebuilding.
    state.pool = std::make_unique<ThreadPool>(resolved);
    state.built_size = resolved;
  }
  return state.pool.get();
}

}  // namespace eafe::runtime
