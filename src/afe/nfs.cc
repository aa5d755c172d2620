#include "afe/nfs.h"

#include "afe/eval_service.h"
#include "afe/reward.h"
#include "afe/search_pipeline.h"
#include "core/rng.h"
#include "core/stopwatch.h"

namespace eafe::afe {

NfsSearch::NfsSearch(const SearchOptions& options) : options_(options) {}

Result<SearchResult> NfsSearch::Run(const data::Dataset& dataset) {
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

  // One RNN controller per original feature.
  std::vector<RnnAgent> agents;
  agents.reserve(space.num_groups());
  for (size_t g = 0; g < space.num_groups(); ++g) {
    RnnAgent::Options agent_options;
    agent_options.input_dim = kAgentStateDim;
    agent_options.hidden_dim = options_.agent_hidden_dim;
    agent_options.num_actions = kNumOperators;
    agent_options.learning_rate = options_.learning_rate;
    agent_options.seed = rng.Next();
    agents.emplace_back(agent_options);
  }

  StepPipelineConfig pipeline_config;
  pipeline_config.mode = options_.pipeline;
  pipeline_config.filter = StepFilter::kNone;

  size_t last_improvement_epoch = 0;
  size_t kept_at_last_improvement = 0;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const double progress =
        static_cast<double>(epoch) / static_cast<double>(options_.epochs);
    // Generation runs against the frame (the space frozen at epoch
    // start); rewards, accepts, and policy updates all happen at the
    // merge barrier below, in submission order, so results are
    // bit-identical in sync and async mode. Within an episode the
    // agent state uses the previous *sampled* action and a zero reward
    // placeholder — rewards are not known until the merge.
    SearchStepPipeline pipeline(pipeline_config, &space, &eval_service);
    for (size_t group = 0; group < space.num_groups(); ++group) {
      RnnAgent& agent = agents[group];
      agent.ResetEpisode();
      int last_action = -1;
      for (size_t step = 0; step < options_.steps_per_agent; ++step) {
        const std::vector<double> state = BuildAgentState(
            last_action, 0.0, space.group(group).size(), progress);
        const std::vector<double> probs = agent.Step(state);
        const size_t action_index = agent.SampleAction(probs, &rng);
        const Operator op = AllOperators()[action_index];

        Stopwatch gen_watch;
        const FeatureSpace::Action action = space.MakeAction(group, op, &rng);
        auto candidate = space.GenerateCandidate(action);
        result.generation_seconds += gen_watch.ElapsedSeconds();

        StepTask task;
        task.group = group;
        task.accept_group = group;
        StepAttempt attempt;
        attempt.action_index = action_index;
        if (candidate.ok()) {
          ++result.features_generated;
          attempt.generated = true;
          attempt.candidate = std::move(candidate).ValueOrDie();
        }
        task.attempts.push_back(std::move(attempt));
        pipeline.Submit(std::move(task));
        last_action = static_cast<int>(action_index);
      }
    }
    EAFE_ASSIGN_OR_RETURN(auto tasks, pipeline.Finish());

    // Merge: gains against the running best, greedy accepts, then one
    // policy-gradient update per agent on its episode.
    size_t task_index = 0;
    for (size_t group = 0; group < space.num_groups(); ++group) {
      std::vector<size_t> actions;
      std::vector<double> rewards;
      for (size_t step = 0; step < options_.steps_per_agent; ++step) {
        StepTask& task = tasks[task_index++];
        double reward = 0.0;
        if (task.evaluated) {
          result.evaluation_seconds += task.eval_seconds;
          ++result.features_evaluated;
          const double gain = task.score - result.best_score;
          reward = gain;
          SpaceFeature& candidate =
              task.attempts[static_cast<size_t>(task.chosen)].candidate;
          if (gain > options_.accept_margin &&
              !space.Contains(task.accept_group, candidate.column.name()) &&
              space.Accept(task.accept_group, std::move(candidate)).ok()) {
            result.best_score += gain;
            ++result.features_kept;
          }
        }
        actions.push_back(task.attempts.front().action_index);
        rewards.push_back(reward);
      }
      // NFS trains the controller with plain policy gradient on
      // discounted gains (no lambda-return, no replay).
      agents[group].Update(actions, DiscountedReturns(rewards, options_.gamma));
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
