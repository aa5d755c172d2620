#ifndef EAFE_AFE_EVAL_SERVICE_H_
#define EAFE_AFE_EVAL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "afe/feature_space.h"
#include "afe/search.h"
#include "core/status.h"
#include "ml/evaluator.h"
#include "runtime/metrics.h"
#include "runtime/score_cache.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {

/// Canonical transformation-signature hash of a candidate evaluation: a
/// 64-bit digest of the evaluator configuration, the task, and every
/// column (name and values) of the table the candidate would be scored on.
/// Built on hashing::MixHash — the same order-independent-seeded mixer the
/// weighted-MinHash canonicalization uses — so two requests collide only
/// when they would score byte-identical tables under identical settings.
uint64_t EvaluationSignature(const data::Dataset& dataset,
                             const ml::EvaluatorOptions& options);

/// Batched candidate-evaluation front-end shared by every search method.
/// A batch is deduplicated by EvaluationSignature, answered from a sharded
/// LRU ScoreCache where possible, and the remaining unique evaluations fan
/// out across the thread pool. Scores are pure functions of (table,
/// evaluator config), so cache hits and parallel execution return exactly
/// the scores the serial path would have computed; reductions happen in
/// request order, never completion order.
///
/// Accounting: every request bumps the evaluator's evaluation count (cache
/// hits via RecordCachedScore), keeping Table IV's requested-evaluation
/// numbers identical to the cache-free serial path. Model fits actually
/// paid are visible as cache misses in cache().stats().
class EvalService {
 public:
  struct Options {
    runtime::ScoreCache::Options cache;
    /// Pool for fan-out; null means the process-wide GlobalPool() (which
    /// is itself null — fully serial — when --threads=1).
    runtime::ThreadPool* pool = nullptr;
  };

  /// One evaluated candidate. `gain` is score - current_score.
  struct Outcome {
    double score = 0.0;
    double gain = 0.0;
    bool cache_hit = false;  ///< Served without a model fit.
    uint64_t signature = 0;
  };

  /// `evaluator` is not owned and must outlive the service.
  explicit EvalService(const ml::TaskEvaluator* evaluator)
      : EvalService(evaluator, Options()) {}
  EvalService(const ml::TaskEvaluator* evaluator, const Options& options);

  /// Scores state+candidate for each candidate against the same `space`
  /// snapshot. Duplicate candidates within the batch are evaluated once.
  Result<std::vector<Outcome>> EvaluateBatch(
      const FeatureSpace& space, const std::vector<SpaceFeature>& candidates,
      double current_score);

  /// Single-candidate convenience for the sequential RL loops: the gain of
  /// adding `candidate` to `space`, cached and pool-accelerated.
  Result<double> EvaluateGain(const FeatureSpace& space,
                              const SpaceFeature& candidate,
                              double current_score);

  /// Cached absolute score of an arbitrary dataset (base-score probes).
  /// `frame_bins` are passed through to TaskEvaluator::Score on a miss;
  /// they change the cost, never the score, so the cache signature does
  /// not cover them.
  Result<double> ScoreDataset(const data::Dataset& dataset,
                              const ml::FeatureBinner* frame_bins = nullptr);

  /// Candidate evaluations requested (cache hits included).
  size_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered without a model fit (cache or in-batch duplicate).
  size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

  const runtime::ScoreCache& cache() const { return cache_; }
  const ml::TaskEvaluator& evaluator() const { return *evaluator_; }

 private:
  runtime::ThreadPool* pool() const;

  const ml::TaskEvaluator* evaluator_;
  runtime::ThreadPool* pool_;
  runtime::ScoreCache cache_;
  std::atomic<size_t> requests_{0};
  std::atomic<size_t> cache_hits_{0};
  /// Instruments captured from GlobalMetrics() at construction; owned by
  /// the gateway. Batch latency lets eval throughput (evaluations per
  /// second) be derived as rate(evaluations) in any scraper.
  runtime::MetricCounter* metric_requests_;
  runtime::MetricCounter* metric_cache_hits_;
  runtime::MetricCounter* metric_evaluations_;
  runtime::MetricHistogram* metric_batch_seconds_;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_EVAL_SERVICE_H_
