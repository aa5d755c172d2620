#ifndef EAFE_RUNTIME_BOUNDED_QUEUE_H_
#define EAFE_RUNTIME_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/stopwatch.h"
#include "runtime/metrics.h"

namespace eafe::runtime {

/// Bounded MPMC queue — the backpressure primitive under
/// runtime::Pipeline (DESIGN.md §12). Producers block while the queue is
/// at capacity, consumers block while it is empty; Close() wakes
/// everyone and lets consumers drain what is already buffered. The
/// queue is FIFO per producer and globally FIFO under a single
/// producer, which is what the pipeline's sequence-number merge relies
/// on for bounded reorder windows.
///
/// Instrumentation (all owned by the gateway, captured at
/// construction, no-ops under VoidMetrics()):
///   <metric_prefix>_queue_depth              gauge — current size
///   <metric_prefix>_queue_push_stall_seconds histogram — time producers
///                                            spent blocked on a full
///                                            queue (only stalls are
///                                            observed, not every push)
///   <metric_prefix>_queue_pop_stall_seconds  histogram — time consumers
///                                            spent blocked on an empty
///                                            queue
/// An empty metric_prefix skips instrument registration entirely.
template <typename T>
class BoundedQueue {
 public:
  struct Options {
    /// Maximum number of buffered items; producers block at capacity.
    size_t capacity = 8;
    /// Prometheus identifier prefix (e.g. "eafe_pipeline_eval"); ""
    /// disables instrumentation.
    std::string metric_prefix;
    MetricGateway* metrics = nullptr;  ///< null -> GlobalMetrics().
  };

  /// A zero capacity is clamped to 1 (a bounded queue must be able to
  /// hold at least one item or producers and consumers deadlock).
  explicit BoundedQueue(const Options& options)
      : capacity_(options.capacity == 0 ? 1 : options.capacity) {
    if (!options.metric_prefix.empty()) {
      MetricGateway* gateway =
          options.metrics != nullptr ? options.metrics : GlobalMetrics();
      depth_ = gateway->Gauge(options.metric_prefix + "_queue_depth",
                              "Items currently buffered in the queue");
      push_stall_ = gateway->Histogram(
          options.metric_prefix + "_queue_push_stall_seconds",
          "Seconds producers spent blocked on a full queue", {});
      pop_stall_ = gateway->Histogram(
          options.metric_prefix + "_queue_pop_stall_seconds",
          "Seconds consumers spent blocked on an empty queue", {});
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `value`)
  /// if the queue is closed before space frees up; pushing to a closed
  /// queue is a benign no-op so racing producers need no extra
  /// handshake.
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      Stopwatch stall;
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (push_stall_ != nullptr) push_stall_->Observe(stall.ElapsedSeconds());
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    if (depth_ != nullptr) depth_->Set(static_cast<double>(items_.size()));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed.
  bool TryPush(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
      if (depth_ != nullptr) depth_->Set(static_cast<double>(items_.size()));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt only when the
  /// queue is closed AND drained — buffered items are always delivered.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty() && !closed_) {
      Stopwatch stall;
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      if (pop_stall_ != nullptr) pop_stall_->Observe(stall.ElapsedSeconds());
    }
    if (items_.empty()) return std::nullopt;  // Closed and drained.
    T value = std::move(items_.front());
    items_.pop_front();
    if (depth_ != nullptr) depth_->Set(static_cast<double>(items_.size()));
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Idempotent. Unblocks every waiter; subsequent pushes fail,
  /// subsequent pops drain the backlog then return nullopt.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  MetricGauge* depth_ = nullptr;
  MetricHistogram* push_stall_ = nullptr;
  MetricHistogram* pop_stall_ = nullptr;
};

}  // namespace eafe::runtime

#endif  // EAFE_RUNTIME_BOUNDED_QUEUE_H_
