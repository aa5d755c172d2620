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

/// One-stage producer-consumer pipeline over a BoundedQueue, built on
/// ThreadPool workers (never raw threads — the lint wall polices that).
/// The producer Submit()s items into one bounded intake queue, every pool
/// thread runs the stage function on the items it pops, and
/// NextOrdered() hands completed items back in submission order via a
/// sequence-number reorder buffer — so a pipeline whose stage function is
/// pure produces results bit-identical to running it inline, at any
/// worker count. See DESIGN.md §12.
///
/// Execution model: at construction one worker per pool thread is
/// submitted to the pool as a long-running task that loops popping the
/// intake queue. Workers occupy the whole pool until the pipeline closes.
/// The thread that constructs the pipeline is its producer and must also
/// destroy it: while the workers hold the pool, the producer holds an
/// InlineParallelScope, so a ParallelFor it issues between Submit()s runs
/// inline instead of queueing behind the workers forever. Work nested
/// *inside* the stage function runs inline too (ParallelFor detects pool
/// workers). The producer must still not Submit() tasks to the pool
/// directly while the pipeline is open. With a null pool, or when
/// constructed from inside a pool worker, the pipeline runs inline:
/// Submit() runs the stage on the calling thread and NextOrdered() just
/// replays submission order. async() reports which mode was chosen.
///
/// Lifecycle: Submit()* -> Close() -> NextOrdered() until nullopt.
/// Submit blocks while the intake queue is full (backpressure).
/// NextOrdered() may also be interleaved with Submit(); it blocks until
/// the next sequence number completes. The stage function must not
/// throw — propagate failures in the item itself (e.g. a Status member).
///
/// Instrumentation (through the BoundedQueue gauges plus):
///   <prefix>_<name>_busy_workers gauge — workers inside fn right now
///   <prefix>_<name>_items_total  counter — items processed
template <typename Item>
class Pipeline {
 public:
  struct Options {
    /// Pool whose every thread becomes a worker; null forces inline mode.
    ThreadPool* pool = nullptr;
    /// Prometheus-identifier fragment naming the stage ("eval").
    std::string name;
    /// Intake queue bound.
    size_t queue_capacity = 8;
    /// Metric name prefix; "" disables instrumentation.
    std::string metric_prefix = "eafe_pipeline";
    MetricGateway* metrics = nullptr;  ///< null -> GlobalMetrics().
  };

  /// `fn` transforms one item in place; it runs concurrently across items.
  Pipeline(std::function<void(Item&)> fn, const Options& options)
      : fn_(std::move(fn)),
        async_(options.pool != nullptr && !ThreadPool::OnWorkerThread()) {
    const bool instrument = !options.metric_prefix.empty();
    const std::string base = options.metric_prefix + "_" + options.name;
    if (instrument) {
      MetricGateway* gateway =
          options.metrics != nullptr ? options.metrics : GlobalMetrics();
      busy_ = gateway->Gauge(base + "_busy_workers",
                             "Stage workers currently processing an item");
      items_ = gateway->Counter(base + "_items_total",
                                "Items processed by the stage");
    }
    if (!async_) return;
    typename BoundedQueue<Slot>::Options queue_options;
    queue_options.capacity = options.queue_capacity;
    queue_options.metric_prefix = instrument ? base : "";
    queue_options.metrics = options.metrics;
    queue_ = std::make_unique<BoundedQueue<Slot>>(queue_options);
    producer_scope_.emplace();
    for (size_t w = 0; w < options.pool->num_threads(); ++w) {
      workers_.push_back(options.pool->Submit([this] { Work(); }));
    }
  }

  ~Pipeline() {
    Close();
    for (std::future<void>& worker : workers_) worker.wait();
  }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// True when the workers run on the pool; false in inline mode.
  bool async() const { return async_; }

  /// Hands the item to the intake queue, blocking while it is full
  /// (backpressure). In inline mode runs the stage on the calling thread
  /// instead. Must not be called after Close().
  void Submit(Item item) {
    const uint64_t seq = submitted_++;
    if (!async_) {
      Run(item);
      Emit(seq, std::move(item));
      return;
    }
    // Push only fails on a closed queue, which would mean Submit after
    // Close — the item would be silently lost, so surface it by
    // accounting: a dropped push keeps `submitted_` ahead of emitted
    // items and NextOrdered() blocks, making the misuse loud in tests.
    queue_->Push(Slot{seq, std::move(item)});
  }

  /// Closes the intake. Idempotent. Workers finish the items already
  /// queued, then exit.
  void Close() {
    if (async_) queue_->Close();
    std::lock_guard<std::mutex> lock(out_mu_);
    done_ = true;
    out_cv_.notify_all();
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

  void Run(Item& item) {
    if (busy_ != nullptr) busy_->Add(1);
    fn_(item);
    if (busy_ != nullptr) busy_->Add(-1);
    if (items_ != nullptr) items_->Increment();
  }

  void Work() {
    while (std::optional<Slot> slot = queue_->Pop()) {
      Run(slot->item);
      Emit(slot->seq, std::move(slot->item));
    }
  }

  void Emit(uint64_t seq, Item item) {
    std::lock_guard<std::mutex> lock(out_mu_);
    output_.emplace(seq, std::move(item));
    out_cv_.notify_all();
  }

  std::function<void(Item&)> fn_;
  bool async_ = false;
  MetricGauge* busy_ = nullptr;
  MetricCounter* items_ = nullptr;
  std::unique_ptr<BoundedQueue<Slot>> queue_;  // Async mode only.
  std::vector<std::future<void>> workers_;
  /// Held on the producer thread while the workers occupy the pool
  /// (async mode only); released after the destructor joins them.
  std::optional<InlineParallelScope> producer_scope_;
  std::atomic<uint64_t> submitted_{0};

  /// Reorder buffer: completed items not yet taken, keyed by sequence
  /// number. The intake queue bounds only the items not yet started.
  /// The search pipeline calls NextOrdered() only from its Finish(),
  /// after the last Submit(), so this buffer can hold every item of a
  /// run — a whole epoch's tasks (96 on the e2ebench `eafe_wide`
  /// workload).
  std::mutex out_mu_;
  std::condition_variable out_cv_;
  std::map<uint64_t, Item> output_;
  uint64_t next_out_ = 0;
  bool done_ = false;
};

}  // namespace eafe::runtime

#endif  // EAFE_RUNTIME_PIPELINE_H_
