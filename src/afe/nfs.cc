#include "afe/nfs.h"

#include "afe/reward.h"
#include "afe/search_pipeline.h"
#include "core/rng.h"
#include "core/stopwatch.h"

namespace eafe::afe {

NfsSearch::NfsSearch(const SearchOptions& options) : options_(options) {}

Result<SearchResult> NfsSearch::Run(const data::Dataset& dataset) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  SearchRun run(options_, name(), dataset);
  const FeatureSpace& space = run.space();
  SearchResult& result = run.result();
  Rng rng(options_.seed);
  EAFE_RETURN_NOT_OK(run.ScoreBase());

  // One RNN controller per original feature.
  std::vector<RnnAgent> agents = MakeAgents(space.num_groups(), &rng);

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const double progress =
        static_cast<double>(epoch) / static_cast<double>(options_.epochs);
    // Generation runs against the frame (the space frozen at epoch
    // start); rewards, accepts, and policy updates all happen at the
    // merge barrier below, in submission order, so results are
    // bit-identical at any --threads. Within an episode the agent state
    // uses the previous *sampled* action and a zero reward placeholder —
    // rewards are not known until the merge.
    SearchStepPipeline pipeline = run.StartEpoch();
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

    // Merge, then one policy-gradient update per agent on its episode.
    size_t task_index = 0;
    for (size_t group = 0; group < space.num_groups(); ++group) {
      std::vector<size_t> actions;
      std::vector<double> rewards;
      for (size_t step = 0; step < options_.steps_per_agent; ++step) {
        StepTask& task = tasks[task_index++];
        actions.push_back(task.attempts.front().action_index);
        rewards.push_back(run.Merge(task));
      }
      // NFS trains the controller with plain policy gradient on
      // discounted gains (no lambda-return, no replay).
      agents[group].Update(actions, DiscountedReturns(rewards, kGamma));
    }
    if (run.EndEpoch(epoch)) break;
  }
  return run.Finish();
}

}  // namespace eafe::afe
