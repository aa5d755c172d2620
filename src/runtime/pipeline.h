#ifndef EAFE_RUNTIME_PIPELINE_H_
#define EAFE_RUNTIME_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/bounded_queue.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace eafe::runtime {

/// Multi-stage producer-consumer pipeline over BoundedQueue, built on
/// ThreadPool workers (never raw threads — the lint wall polices that).
/// The producer Submit()s items, each stage transforms them in place,
/// and NextOrdered() hands completed items back in submission order via
/// a sequence-number reorder buffer — so a pipeline whose stage
/// functions are pure produces results bit-identical to running the
/// stages inline, at any worker count. See DESIGN.md §12.
///
/// Execution model: at construction every stage worker is submitted to
/// the pool as a long-running task that loops popping its input queue.
/// Workers occupy their pool threads until the pipeline closes, so the
/// sum of stage workers must not exceed the pool size. The thread that
/// constructs the pipeline is its producer and must also destroy it:
/// while the workers hold the pool, the producer holds an
/// InlineParallelScope, so a ParallelFor it issues between Submit()s
/// runs inline instead of queueing behind the workers forever. Work
/// nested *inside* stage functions runs inline too (ParallelFor detects
/// pool workers). The producer must still not Submit() tasks to the pool
/// directly while the pipeline is open. When no pool is available — null
/// GlobalPool-style serial configs, a pool smaller than the stage plan,
/// or construction from inside a pool worker — the pipeline degrades to
/// inline execution: Submit() runs every stage on the calling thread
/// and NextOrdered() just replays submission order. async() reports
/// which mode was chosen.
///
/// Lifecycle: Submit()* -> Close() -> NextOrdered() until nullopt.
/// Submit blocks when stage 0's queue is full (backpressure). Close()
/// closes stage 0's input; the last worker of each stage closes the
/// next stage's queue, so the close cascades and NextOrdered() returns
/// nullopt exactly after every submitted item has been delivered.
/// NextOrdered() may also be interleaved with Submit(); it blocks until
/// the next sequence number completes. Stage functions must not throw —
/// propagate failures in the item itself (e.g. a Status member).
///
/// Instrumentation per stage (through the BoundedQueue gauges plus):
///   <prefix>_<stage>_busy_workers gauge — workers inside fn right now
///   <prefix>_<stage>_items_total  counter — items processed
template <typename Item>
class Pipeline {
 public:
  struct StageSpec {
    /// Prometheus-identifier fragment naming the stage ("filter",
    /// "eval").
    std::string name;
    /// Worker count for this stage (>= 1) in async mode.
    size_t workers = 1;
    /// Input queue bound for this stage.
    size_t queue_capacity = 8;
    /// In-place transform; runs concurrently across items of one stage.
    std::function<void(Item&)> fn;
  };

  struct Options {
    /// Pool to run stage workers on; null forces inline mode.
    ThreadPool* pool = nullptr;
    /// Metric name prefix; "" disables instrumentation.
    std::string metric_prefix = "eafe_pipeline";
    MetricGateway* metrics = nullptr;  ///< null -> GlobalMetrics().
  };

  Pipeline(std::vector<StageSpec> stages, const Options& options)
      : stages_(std::move(stages)) {
    size_t required = 0;
    for (const StageSpec& stage : stages_) required += stage.workers;
    async_ = options.pool != nullptr && !stages_.empty() &&
             options.pool->num_threads() >= required &&
             !ThreadPool::OnWorkerThread();
    MetricGateway* gateway =
        options.metrics != nullptr ? options.metrics : GlobalMetrics();
    for (const StageSpec& stage : stages_) {
      const bool instrument = !options.metric_prefix.empty();
      const std::string base = options.metric_prefix + "_" + stage.name;
      StageState state;
      state.busy = instrument
                       ? gateway->Gauge(base + "_busy_workers",
                                        "Stage workers currently processing "
                                        "an item")
                       : nullptr;
      state.items = instrument
                        ? gateway->Counter(base + "_items_total",
                                           "Items processed by the stage")
                        : nullptr;
      if (async_) {
        typename BoundedQueue<Slot>::Options queue_options;
        queue_options.capacity = stage.queue_capacity;
        queue_options.metric_prefix = instrument ? base : "";
        queue_options.metrics = options.metrics;
        state.queue = std::make_unique<BoundedQueue<Slot>>(queue_options);
        state.live_workers.store(stage.workers, std::memory_order_relaxed);
      }
      states_.push_back(std::move(state));
    }
    if (async_) {
      producer_scope_.emplace();
      for (size_t s = 0; s < stages_.size(); ++s) {
        for (size_t w = 0; w < stages_[s].workers; ++w) {
          workers_.push_back(
              options.pool->Submit([this, s] { StageWorker(s); }));
        }
      }
    }
  }

  ~Pipeline() {
    Close();
    for (std::future<void>& worker : workers_) worker.wait();
  }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// True when stage workers run on the pool; false in inline mode.
  bool async() const { return async_; }

  /// Hands the item to stage 0, blocking while its queue is full
  /// (backpressure). In inline mode runs every stage on the calling
  /// thread instead. Must not be called after Close().
  void Submit(Item item) {
    const uint64_t seq = submitted_++;
    if (!async_) {
      for (size_t s = 0; s < stages_.size(); ++s) {
        RunStage(s, item);
      }
      Emit(seq, std::move(item));
      return;
    }
    // Push only fails on a closed queue, which would mean Submit after
    // Close — the item would be silently lost, so surface it by
    // accounting: a dropped push keeps `submitted_` ahead of emitted
    // items and NextOrdered() blocks, making the misuse loud in tests.
    states_[0].queue->Push(Slot{seq, std::move(item)});
  }

  /// Closes the intake. Idempotent. In async mode the close cascades
  /// stage by stage as workers drain their queues.
  void Close() {
    if (closed_.exchange(true)) return;
    if (async_) {
      states_[0].queue->Close();
    } else {
      std::lock_guard<std::mutex> lock(out_mu_);
      done_ = true;
      out_cv_.notify_all();
    }
  }

  /// Returns completed items in submission order, blocking until the
  /// next sequence number finishes. Returns nullopt once the pipeline
  /// is closed and every submitted item has been delivered.
  std::optional<Item> NextOrdered() {
    std::unique_lock<std::mutex> lock(out_mu_);
    out_cv_.wait(lock, [this] {
      return output_.count(next_out_) != 0 ||
             (done_ && next_out_ >= submitted_);
    });
    auto it = output_.find(next_out_);
    if (it == output_.end()) return std::nullopt;  // Closed and drained.
    Item item = std::move(it->second);
    output_.erase(it);
    ++next_out_;
    return item;
  }

 private:
  struct Slot {
    uint64_t seq = 0;
    Item item;
  };

  struct StageState {
    std::unique_ptr<BoundedQueue<Slot>> queue;  // Async mode only.
    std::atomic<size_t> live_workers{0};
    MetricGauge* busy = nullptr;
    MetricCounter* items = nullptr;

    StageState() = default;
    StageState(StageState&& other) noexcept
        : queue(std::move(other.queue)),
          live_workers(other.live_workers.load(std::memory_order_relaxed)),
          busy(other.busy),
          items(other.items) {}
  };

  void RunStage(size_t s, Item& item) {
    StageState& state = states_[s];
    if (state.busy != nullptr) state.busy->Add(1);
    stages_[s].fn(item);
    if (state.busy != nullptr) state.busy->Add(-1);
    if (state.items != nullptr) state.items->Increment();
  }

  void StageWorker(size_t s) {
    while (true) {
      std::optional<Slot> slot = states_[s].queue->Pop();
      if (!slot.has_value()) break;  // Closed and drained.
      RunStage(s, slot->item);
      if (s + 1 < states_.size()) {
        states_[s + 1].queue->Push(std::move(*slot));
      } else {
        Emit(slot->seq, std::move(slot->item));
      }
    }
    if (states_[s].live_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last worker out closes the downstream queue; after the final
      // stage drains, mark the output complete.
      if (s + 1 < states_.size()) {
        states_[s + 1].queue->Close();
      } else {
        std::lock_guard<std::mutex> lock(out_mu_);
        done_ = true;
        out_cv_.notify_all();
      }
    }
  }

  void Emit(uint64_t seq, Item item) {
    std::lock_guard<std::mutex> lock(out_mu_);
    output_.emplace(seq, std::move(item));
    out_cv_.notify_all();
  }

  std::vector<StageSpec> stages_;
  std::vector<StageState> states_;
  std::vector<std::future<void>> workers_;
  bool async_ = false;
  /// Held on the producer thread while the stage workers occupy the pool
  /// (async mode only); released after the destructor joins them.
  std::optional<InlineParallelScope> producer_scope_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> submitted_{0};

  /// Reorder buffer: completed items keyed by sequence number. Bounded
  /// in practice by the stage queue bounds plus items in flight — the
  /// producer cannot run ahead of the slowest stage by more than the
  /// total queue capacity.
  std::mutex out_mu_;
  std::condition_variable out_cv_;
  std::map<uint64_t, Item> output_;
  uint64_t next_out_ = 0;
  bool done_ = false;
};

}  // namespace eafe::runtime

#endif  // EAFE_RUNTIME_PIPELINE_H_
