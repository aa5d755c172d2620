#ifndef EAFE_RUNTIME_METRICS_H_
#define EAFE_RUNTIME_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace eafe::runtime {

/// Prometheus-style runtime metrics (modeled on coincenter's monitoring
/// module): instrumented code asks a MetricGateway for named instruments
/// once (at construction) and drives them from hot paths; the gateway
/// decides whether anything is recorded. The default is VoidMetrics() —
/// every instrument is a shared no-op, so instrumentation costs one
/// predictable indirect call when monitoring is off. TextMetricGateway
/// records for real and renders the Prometheus text exposition format;
/// eafe_server will export it, and the CLI's --metrics flag dumps it.
///
/// Instruments are owned by their gateway and stay valid for its
/// lifetime. All operations are thread-safe; hot-path updates are
/// relaxed atomics (metrics are monitoring data, not synchronization).

/// Monotonically increasing event count.
class MetricCounter {
 public:
  virtual ~MetricCounter() = default;
  virtual void Increment(uint64_t delta = 1) = 0;
  virtual uint64_t Value() const = 0;
};

/// Point-in-time level (queue depth, busy workers).
class MetricGauge {
 public:
  virtual ~MetricGauge() = default;
  virtual void Set(double value) = 0;
  virtual void Add(double delta) = 0;
  virtual double Value() const = 0;
};

/// Distribution of observations over fixed buckets (latencies).
class MetricHistogram {
 public:
  virtual ~MetricHistogram() = default;
  virtual void Observe(double value) = 0;
  virtual uint64_t Count() const = 0;
  virtual double Sum() const = 0;
};

class MetricGateway {
 public:
  virtual ~MetricGateway() = default;

  /// Instrument lookup-or-create by name. Repeated calls with the same
  /// name return the same instrument (help/buckets from the first call
  /// win). Names must be valid Prometheus identifiers:
  /// [a-zA-Z_][a-zA-Z0-9_]*.
  virtual MetricCounter* Counter(const std::string& name,
                                 const std::string& help) = 0;
  virtual MetricGauge* Gauge(const std::string& name,
                             const std::string& help) = 0;
  /// `buckets` are upper bounds, ascending; empty selects a default
  /// latency-flavored set. A +Inf bucket is implicit.
  virtual MetricHistogram* Histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> buckets) = 0;

  /// Prometheus text exposition of everything registered ("" for the
  /// void gateway).
  virtual std::string TextExposition() const = 0;
};

/// The shared no-op gateway: instruments discard updates and read back
/// zero. Never null, never destroyed.
MetricGateway* VoidMetrics();

/// In-memory recording gateway with Prometheus text exposition.
/// Registration takes a mutex; instrument updates are lock-free.
class TextMetricGateway : public MetricGateway {
 public:
  TextMetricGateway();
  ~TextMetricGateway() override;
  TextMetricGateway(const TextMetricGateway&) = delete;
  TextMetricGateway& operator=(const TextMetricGateway&) = delete;

  MetricCounter* Counter(const std::string& name,
                         const std::string& help) override;
  MetricGauge* Gauge(const std::string& name,
                     const std::string& help) override;
  MetricHistogram* Histogram(const std::string& name,
                             const std::string& help,
                             std::vector<double> buckets) override;

  /// # HELP / # TYPE blocks plus samples, families sorted by name so
  /// the dump is deterministic.
  std::string TextExposition() const override;

 private:
  struct Family;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Family>> families_;
};

/// Process-wide gateway used by ThreadPool / EvalService / the search
/// pipeline / the SIMD dispatch counters; VoidMetrics() until installed.
/// Install (SetGlobalMetrics) before constructing the instrumented
/// components — they capture their instruments at construction. Passing
/// nullptr restores the void gateway. The caller keeps ownership and must
/// keep the gateway alive while any instrumented component lives.
MetricGateway* GlobalMetrics();
void SetGlobalMetrics(MetricGateway* gateway);

}  // namespace eafe::runtime

#endif  // EAFE_RUNTIME_METRICS_H_
