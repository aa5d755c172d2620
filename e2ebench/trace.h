#ifndef EAFE_E2EBENCH_TRACE_H_
#define EAFE_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace eafe::e2e {

/// One timed call. Names are "<layer>.<call>" (e.g. "ml.fit"); the layer
/// is everything before the first '.'.
struct Span {
  std::string name;
  uint64_t id = 0;      ///< 1-based, in Begin order.
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t item = 0;    ///< Candidate or request id; 0 when none.
  uint32_t thread = 0;  ///< Small per-recorder thread index.
  double start_us = 0.0;
  double end_us = 0.0;  ///< Equal to start_us while the span is open.

  double duration_us() const { return end_us - start_us; }
  std::string_view layer() const;
};

/// In-memory span recorder. The benchmark records spans around its own
/// calls into each module's public functions and writes them out once
/// the run ends, so recording never touches the program under test.
/// Begin/End may be called from any thread.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its id.
  uint64_t Begin(std::string_view name, uint64_t parent, uint64_t item = 0);
  void End(uint64_t id);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  using Clock = std::chrono::steady_clock;
  double NowUs() const;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, uint32_t> threads_;
};

/// RAII span; a null recorder records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, uint64_t parent,
             uint64_t item = 0)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, item) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its children cover. Children that overlap
/// each other (pool threads) are merged first, so self time is never
/// negative and never counts a covered microsecond twice.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Sum of self time per layer, in seconds.
std::map<std::string, double> LayerBusySeconds(const std::vector<Span>& spans);

/// The spans whose root ancestor is named `root_name`, roots included.
std::vector<Span> SpansUnder(const std::vector<Span>& spans,
                             std::string_view root_name);

/// Share of the root spans' total duration that no child covers.
double UnattributedFraction(const std::vector<Span>& spans);

/// Median duration (µs) of the spans named `name`; 0 when there are none.
double MedianDurationUs(const std::vector<Span>& spans, std::string_view name);

/// Chrome trace-event JSON ("X" complete events), which chrome://tracing
/// and Perfetto open directly.
std::string ChromeTraceJson(const std::vector<Span>& spans);

/// Escapes `text` for use inside a JSON string literal.
std::string JsonEscape(std::string_view text);

}  // namespace eafe::e2e

#endif  // EAFE_E2EBENCH_TRACE_H_
