#ifndef EAFE_AFE_EVAL_SERVICE_H_
#define EAFE_AFE_EVAL_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <unordered_map>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "runtime/metrics.h"

namespace eafe::afe {

/// Canonical transformation-signature hash of a candidate evaluation: a
/// 64-bit digest of the evaluator configuration (every field
/// EvaluatorOptions::Fields() lists), the task, and every column (name
/// and values) of the table the candidate would be scored on.
/// Built on hashing::MixHash — the same order-independent-seeded mixer the
/// weighted-MinHash canonicalization uses — so two requests collide only
/// when they would score byte-identical tables under identical settings.
uint64_t EvaluationSignature(const data::Dataset& dataset,
                             const ml::EvaluatorOptions& options);

/// Memoized candidate-evaluation front-end shared by every search method,
/// and the one place evaluations are counted. ScoreDataset keys each
/// table by EvaluationSignature: the first request for a signature scores
/// it with the evaluator, and every later or concurrent request waits for
/// that result and counts as a hit. Scores are pure functions of (table,
/// evaluator config), so a hit returns exactly the score a fresh
/// evaluation would have computed, and a failure is memoized like a
/// score. Each signature is fitted once per service whatever the thread
/// count, so requests(), cache_hits() and the fits they imply do not
/// depend on scheduling. The service is safe to call from many threads at
/// once: the search pipeline's workers share one (DESIGN.md §12).
///
/// A waiter blocks its thread until the first request's score is ready.
/// That score never needs the waiter: on a pool worker (or in a
/// ParallelFor caller's block 0) the evaluator's nested ParallelFor runs
/// inline. A thread outside the pool must therefore not score a table
/// that the pool's workers are scoring at the same time.
class EvalService {
 public:
  /// `evaluator` is not owned and must outlive the service.
  explicit EvalService(const ml::TaskEvaluator* evaluator);

  /// Memoized absolute score of `dataset`. `frame_bins` are passed through
  /// to TaskEvaluator::Score on the first request; they change the cost,
  /// never the score, so the signature does not cover them.
  Result<double> ScoreDataset(const data::Dataset& dataset,
                              const ml::FeatureBinner* frame_bins = nullptr);

  /// Evaluations requested (memo hits included): Table IV's count.
  size_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered by an earlier request's score, without a model fit.
  size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

  const ml::TaskEvaluator& evaluator() const { return *evaluator_; }

 private:
  const ml::TaskEvaluator* evaluator_;
  std::mutex mutex_;
  /// One entry per signature requested, fulfilled by its first request.
  std::unordered_map<uint64_t, std::shared_future<Result<double>>> memo_;
  std::atomic<size_t> requests_{0};
  std::atomic<size_t> cache_hits_{0};
  /// Instruments captured from GlobalMetrics() at construction; owned by
  /// the gateway. Eval throughput (evaluations per second) is
  /// rate(evaluations) in any scraper.
  runtime::MetricCounter* metric_requests_;
  runtime::MetricCounter* metric_cache_hits_;
  runtime::MetricCounter* metric_evaluations_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_EVAL_SERVICE_H_
