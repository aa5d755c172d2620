#include "afe/eval_service.h"

#include <bit>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/stopwatch.h"
#include "hashing/minhash.h"

namespace eafe::afe {
namespace {

// FNV-1a over a string, folded into the running digest through MixHash so
// column order matters (column order affects per-split feature sampling,
// hence scores).
uint64_t HashString(uint64_t digest, uint64_t position,
                    const std::string& text) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001B3ULL;
  }
  return hashing::MixHash(digest, position, h);
}

uint64_t HashValues(uint64_t digest, uint64_t position,
                    const std::vector<double>& values) {
  uint64_t h = 0x84222325CBF29CE4ULL;
  for (double v : values) {
    h = (h ^ std::bit_cast<uint64_t>(v)) * 0x100000001B3ULL;
  }
  return hashing::MixHash(digest, position, h);
}

}  // namespace

uint64_t EvaluationSignature(const data::Dataset& dataset,
                             const ml::EvaluatorOptions& options) {
  uint64_t digest = 0x45AF3A1E9C2D7B51ULL;
  uint64_t position = 0;
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(options.model));
  digest = hashing::MixHash(digest, position++, options.cv_folds);
  digest = hashing::MixHash(digest, position++, options.seed);
  digest = hashing::MixHash(digest, position++, options.rf_trees);
  digest = hashing::MixHash(digest, position++, options.rf_max_depth);
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(options.split_strategy));
  digest = hashing::MixHash(digest, position++, options.max_bins);
  digest = hashing::MixHash(digest, position++, options.nn_epochs);
  digest = hashing::MixHash(digest, position++, options.linear_epochs);
  digest = hashing::MixHash(digest, position++, options.gbdt_rounds);
  digest = hashing::MixHash(
      digest, position++,
      std::bit_cast<uint64_t>(options.gbdt_learning_rate));
  digest = hashing::MixHash(digest, position++, options.gbdt_max_depth);
  digest = hashing::MixHash(digest, position++,
                            std::bit_cast<uint64_t>(options.gbdt_subsample));
  digest = hashing::MixHash(digest, position++,
                            std::bit_cast<uint64_t>(options.gbdt_lambda));
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(dataset.task));
  digest = hashing::MixHash(digest, position++, dataset.num_rows());
  digest = HashValues(digest, position++, dataset.labels);
  for (size_t c = 0; c < dataset.features.num_columns(); ++c) {
    const data::Column& column = dataset.features.column(c);
    digest = HashString(digest, position++, column.name());
    digest = HashValues(digest, position++, column.values());
  }
  return digest;
}

EvalService::EvalService(const ml::TaskEvaluator* evaluator,
                         const Options& options)
    : evaluator_(evaluator),
      pool_(options.pool),
      cache_(options.cache),
      metric_requests_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_requests_total",
          "Candidate evaluations requested (cache hits included)")),
      metric_cache_hits_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_cache_hits_total",
          "Evaluation requests served without a model fit")),
      metric_evaluations_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_evaluations_total",
          "Model fits actually executed (unique cache misses)")),
      metric_batch_seconds_(runtime::GlobalMetrics()->Histogram(
          "eafe_eval_batch_seconds", "EvaluateBatch wall time", {})) {}

runtime::ThreadPool* EvalService::pool() const {
  return pool_ != nullptr ? pool_ : runtime::GlobalPool();
}

Result<std::vector<EvalService::Outcome>> EvalService::EvaluateBatch(
    const FeatureSpace& space, const std::vector<SpaceFeature>& candidates,
    double current_score) {
  std::vector<Outcome> outcomes(candidates.size());
  const Stopwatch batch_timer;

  // Serial prologue: build each candidate's table, compute its signature,
  // answer what the cache can, and dedup the rest. Request order defines
  // job order, so the whole batch is deterministic.
  struct Job {
    data::Dataset dataset;
    uint64_t signature = 0;
  };
  std::vector<Job> jobs;
  std::unordered_map<uint64_t, size_t> signature_to_job;
  // outcome index -> job index, for misses and in-batch duplicates.
  std::vector<std::pair<size_t, size_t>> pending;
  for (size_t i = 0; i < candidates.size(); ++i) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    metric_requests_->Increment();
    EAFE_ASSIGN_OR_RETURN(data::Dataset dataset,
                          BuildCandidateDataset(space, candidates[i]));
    const uint64_t signature =
        EvaluationSignature(dataset, evaluator_->options());
    outcomes[i].signature = signature;
    if (std::optional<double> cached = cache_.Lookup(signature)) {
      outcomes[i].score = *cached;
      outcomes[i].cache_hit = true;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      metric_cache_hits_->Increment();
      evaluator_->RecordCachedScore();
      continue;
    }
    auto [it, inserted] =
        signature_to_job.emplace(signature, jobs.size());
    if (inserted) {
      jobs.push_back(Job{std::move(dataset), signature});
    } else {
      // In-batch duplicate: one model fit, counted as a served request.
      outcomes[i].cache_hit = true;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      metric_cache_hits_->Increment();
      evaluator_->RecordCachedScore();
    }
    pending.emplace_back(i, it->second);
  }

  // Fan the unique uncached evaluations out across the pool. Each job is
  // independent and writes only its own slot; nested parallelism inside
  // Score (folds, trees) runs inline on the worker.
  std::vector<double> scores(jobs.size(), 0.0);
  std::vector<Status> statuses(jobs.size());
  runtime::ParallelFor(
      pool(), jobs.size(), [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          Result<double> score = evaluator_->Score(jobs[j].dataset);
          if (score.ok()) {
            scores[j] = score.ValueOrDie();
          } else {
            statuses[j] = score.status();
          }
        }
      });
  metric_evaluations_->Increment(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    EAFE_RETURN_NOT_OK(statuses[j]);
    cache_.Insert(jobs[j].signature, scores[j]);
  }

  for (const auto& [outcome_index, job_index] : pending) {
    outcomes[outcome_index].score = scores[job_index];
  }
  for (Outcome& outcome : outcomes) {
    outcome.gain = outcome.score - current_score;
  }
  metric_batch_seconds_->Observe(batch_timer.ElapsedSeconds());
  return outcomes;
}

Result<double> EvalService::EvaluateGain(const FeatureSpace& space,
                                         const SpaceFeature& candidate,
                                         double current_score) {
  EAFE_ASSIGN_OR_RETURN(std::vector<Outcome> outcomes,
                        EvaluateBatch(space, {candidate}, current_score));
  return outcomes.front().gain;
}

Result<double> EvalService::ScoreDataset(const data::Dataset& dataset,
                                         const ml::FeatureBinner* frame_bins) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  metric_requests_->Increment();
  const uint64_t signature =
      EvaluationSignature(dataset, evaluator_->options());
  if (std::optional<double> cached = cache_.Lookup(signature)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    metric_cache_hits_->Increment();
    evaluator_->RecordCachedScore();
    return *cached;
  }
  EAFE_ASSIGN_OR_RETURN(double score, evaluator_->Score(dataset, frame_bins));
  metric_evaluations_->Increment();
  cache_.Insert(signature, score);
  return score;
}

}  // namespace eafe::afe
