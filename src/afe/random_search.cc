#include "afe/random_search.h"

#include "afe/eval_service.h"
#include "afe/search_pipeline.h"
#include "core/rng.h"
#include "core/stopwatch.h"

namespace eafe::afe {

RandomSearch::RandomSearch(const SearchOptions& options)
    : options_(options) {}

Result<SearchResult> RandomSearch::Run(const data::Dataset& dataset) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  Stopwatch total_watch;
  Rng rng(options_.seed);
  ml::TaskEvaluator evaluator(options_.evaluator);
  EvalService::Options service_options;
  service_options.cache.capacity = options_.eval_cache_capacity;
  EvalService eval_service(&evaluator, service_options);

  FeatureSpace::Options space_options;
  space_options.max_order = options_.max_order;
  space_options.max_generated_per_group = options_.max_generated_per_group;
  FeatureSpace space(dataset, space_options);

  SearchResult result;
  result.method = name();
  Stopwatch eval_watch;
  EAFE_ASSIGN_OR_RETURN(result.base_score, evaluator.Score(dataset));
  result.evaluation_seconds += eval_watch.ElapsedSeconds();
  result.best_score = result.base_score;

  StepPipelineConfig pipeline_config;
  pipeline_config.mode = options_.pipeline;
  pipeline_config.filter = StepFilter::kNone;

  size_t last_improvement_epoch = 0;
  size_t kept_at_last_improvement = 0;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    // Generation runs against the feature space frozen at epoch start
    // (the frame); accepts happen at the merge below, so candidate
    // scoring reads the frame concurrently without synchronization and
    // results are identical in sync and async mode (DESIGN.md §12).
    SearchStepPipeline pipeline(pipeline_config, &space, &eval_service);
    for (size_t group = 0; group < space.num_groups(); ++group) {
      for (size_t step = 0; step < options_.steps_per_agent; ++step) {
        StepTask task;
        task.group = group;
        task.accept_group = group;
        Stopwatch gen_watch;
        const FeatureSpace::Action action =
            space.SampleRandomAction(group, &rng);
        auto candidate = space.GenerateCandidate(action);
        result.generation_seconds += gen_watch.ElapsedSeconds();
        StepAttempt attempt;
        if (candidate.ok()) {  // Duplicate/over-order/constant otherwise.
          ++result.features_generated;
          attempt.generated = true;
          attempt.candidate = std::move(candidate).ValueOrDie();
        }
        task.attempts.push_back(std::move(attempt));
        pipeline.Submit(std::move(task));
      }
    }
    EAFE_ASSIGN_OR_RETURN(auto tasks, pipeline.Finish());

    // Merge in submission order: gains against the running best, greedy
    // accepts into the live space.
    for (StepTask& task : tasks) {
      if (!task.evaluated) continue;
      result.evaluation_seconds += task.eval_seconds;
      ++result.features_evaluated;
      const double gain = task.score - result.best_score;
      SpaceFeature& candidate =
          task.attempts[static_cast<size_t>(task.chosen)].candidate;
      if (gain > options_.accept_margin &&
          !space.Contains(task.accept_group, candidate.column.name()) &&
          space.Accept(task.accept_group, std::move(candidate)).ok()) {
        result.best_score += gain;
        ++result.features_kept;
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.best_score = result.best_score;
    stats.elapsed_seconds = total_watch.ElapsedSeconds();
    stats.cumulative_evaluations = evaluator.evaluation_count();
    stats.features_generated = result.features_generated;
    result.curve.push_back(stats);
    // Early stopping: quit once no feature has been accepted for
    // `early_stop_patience` consecutive epochs.
    if (result.features_kept > kept_at_last_improvement) {
      kept_at_last_improvement = result.features_kept;
      last_improvement_epoch = epoch;
    }
    if (options_.early_stop_patience > 0 &&
        epoch - last_improvement_epoch >= options_.early_stop_patience) {
      break;
    }
  }

  result.best_dataset = space.ToDataset();
  result.downstream_evaluations = evaluator.evaluation_count();
  result.eval_cache_hits = eval_service.cache_hits();
  EAFE_RETURN_NOT_OK(FinalizeSearchResult(options_, dataset, &result));
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace eafe::afe
