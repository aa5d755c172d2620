#ifndef EAFE_AFE_EVAL_SERVICE_H_
#define EAFE_AFE_EVAL_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/status.h"
#include "data/dataframe.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "runtime/metrics.h"
#include "runtime/score_cache.h"

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

/// Cached candidate-evaluation front-end shared by every search method.
/// ScoreDataset answers a table from a sharded LRU ScoreCache keyed by
/// EvaluationSignature, and otherwise scores it with the evaluator and
/// caches the result. Scores are pure functions of (table, evaluator
/// config), so a cache hit returns exactly the score a fresh evaluation
/// would have computed. The service is safe to call from many threads at
/// once: the search pipeline's workers share one (DESIGN.md §12).
///
/// Accounting: every request bumps the evaluator's evaluation count (cache
/// hits via RecordCachedScore), keeping Table IV's requested-evaluation
/// numbers identical to the cache-free serial path. Model fits actually
/// paid are visible as cache misses in cache().stats().
class EvalService {
 public:
  struct Options {
    runtime::ScoreCache::Options cache;
  };

  /// `evaluator` is not owned and must outlive the service.
  explicit EvalService(const ml::TaskEvaluator* evaluator)
      : EvalService(evaluator, Options()) {}
  EvalService(const ml::TaskEvaluator* evaluator, const Options& options);

  /// Cached absolute score of `dataset`. `frame_bins` are passed through
  /// to TaskEvaluator::Score on a miss; they change the cost, never the
  /// score, so the cache signature does not cover them.
  Result<double> ScoreDataset(const data::Dataset& dataset,
                              const ml::FeatureBinner* frame_bins = nullptr);

  /// Candidate evaluations requested (cache hits included).
  size_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered from the cache, without a model fit.
  size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

  const runtime::ScoreCache& cache() const { return cache_; }
  const ml::TaskEvaluator& evaluator() const { return *evaluator_; }

 private:
  const ml::TaskEvaluator* evaluator_;
  runtime::ScoreCache cache_;
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
