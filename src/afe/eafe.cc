#include "afe/eafe.h"

#include "afe/search_pipeline.h"
#include "core/rng.h"
#include "core/stopwatch.h"

namespace eafe::afe {
namespace {

/// Probability of drawing a fresh step's operator from the replay buffer
/// instead of the policy in the first stage-2 epoch (decays linearly to
/// 0 over the epochs).
constexpr double kReplayBias = 0.5;

}  // namespace

EafeSearch::EafeSearch(const Options& options) : options_(options) {}

std::string EafeSearch::name() const {
  switch (options_.variant) {
    case Variant::kFull:
      return "E-AFE";
    case Variant::kRandomDrop:
      return "E-AFE_D";
    case Variant::kPolicyGradient:
      return "E-AFE_R";
  }
  return "E-AFE";
}

Status EafeSearch::RunStage1(const data::Dataset& dataset,
                             const FeatureSpace::Options& space_options,
                             std::vector<RnnAgent>* agents, Rng* rng,
                             SearchResult* result) {
  FeatureSpace space(dataset, space_options);

  for (size_t epoch = 0; epoch < options_.stage1_epochs; ++epoch) {
    const double progress = static_cast<double>(epoch) /
                            static_cast<double>(options_.stage1_epochs);
    for (size_t group = 0; group < space.num_groups(); ++group) {
      RnnAgent& agent = (*agents)[group];
      agent.ResetEpisode();
      int last_action = -1;
      double last_reward = 0.0;
      double previous_shaped = options_.reward.base_score;
      std::vector<size_t> actions;
      std::vector<double> rewards;
      for (size_t step = 0; step < options_.search.steps_per_agent; ++step) {
        const std::vector<double> state = BuildAgentState(
            last_action, last_reward, space.group(group).size(), progress);
        const std::vector<double> probs = agent.Step(state);
        // Algorithm 2 line 3: agents sample with equal rate in the first
        // initialization epoch, then follow the emerging policy.
        const size_t action_index =
            epoch == 0 ? rng->UniformInt(static_cast<uint64_t>(kNumOperators))
                       : agent.SampleAction(probs, rng);
        const Operator op = AllOperators()[action_index];
        const FeatureSpace::Action action =
            space.MakeAction(group, op, rng);
        auto candidate = space.GenerateCandidate(action);

        double reward = 0.0;
        if (candidate.ok()) {
          ++result->features_generated;
          EAFE_ASSIGN_OR_RETURN(
              double p_effective,
              options_.fpe_model->PredictProbability(
                  candidate->column.values()));
          // Eq. 7/8: the shaping uses the paper's "small p marks an
          // effective feature" convention.
          const double shaped =
              FpeShapedScore(1.0 - p_effective, options_.reward);
          reward = shaped - previous_shaped;  // r_t^h of Eq. 9.
          previous_shaped = shaped;
          if (p_effective >= options_.fpe_accept_threshold) {
            ReplayEntry entry;
            entry.group = group;
            entry.op = op;
            entry.feature_name = candidate->column.name();
            entry.fpe_probability = p_effective;
            entry.order = candidate->order;
            entry.column = candidate->column;  // Replayed in stage 2.
            replay_.Add(std::move(entry));
            // Accepting into the stage-1 space makes higher-order
            // compositions reachable during initialization.
            (void)space.Accept(group, std::move(candidate).ValueOrDie());
          }
        }
        actions.push_back(action_index);
        rewards.push_back(reward);
        last_action = static_cast<int>(action_index);
        last_reward = reward;
      }
      agent.Update(actions, DiscountedReturns(rewards, kGamma));
    }
  }
  return Status::OK();
}

Result<SearchResult> EafeSearch::Run(const data::Dataset& dataset) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  const bool needs_fpe = options_.variant != Variant::kRandomDrop;
  if (needs_fpe &&
      (options_.fpe_model == nullptr || !options_.fpe_model->trained())) {
    return Status::FailedPrecondition(
        "EafeSearch variant requires a trained FPE model");
  }
  if (options_.variant == Variant::kRandomDrop &&
      (options_.random_drop_pass_rate <= 0.0 ||
       options_.random_drop_pass_rate > 1.0)) {
    return Status::InvalidArgument("random_drop_pass_rate must be in (0,1]");
  }

  StepPipelineConfig pipeline_config;
  pipeline_config.filter = options_.variant == Variant::kRandomDrop
                               ? StepFilter::kRandomDrop
                               : StepFilter::kFpe;
  pipeline_config.fpe_model = options_.fpe_model;
  pipeline_config.fpe_accept_threshold = options_.fpe_accept_threshold;
  SearchRun run(options_.search, name(), dataset, pipeline_config);
  SearchResult& result = run.result();
  Rng rng(options_.search.seed);
  replay_.Clear();

  // Agents persist across both stages — the whole point of stage 1. One
  // per feature group, and a FeatureSpace has one group per original
  // feature.
  std::vector<RnnAgent> agents = MakeAgents(dataset.num_features(), &rng);

  // Stage 1: quick initialization with the FPE model (kFull only;
  // kPolicyGradient ablates the two-stage strategy, kRandomDrop has no
  // model to initialize from). Serial: step t+1's state, operator and
  // operands depend on step t's FPE reward and accepts, so there is
  // nothing to overlap. Each FPE probe fans its MinHash slots out over
  // the otherwise idle pool instead (DESIGN §9).
  if (options_.variant == Variant::kFull && options_.stage1_epochs > 0) {
    Stopwatch stage1_watch;
    EAFE_RETURN_NOT_OK(
        RunStage1(dataset, run.space().options(), &agents, &rng, &result));
    result.generation_seconds += stage1_watch.ElapsedSeconds();
  }

  // Stage 2: formal training against the downstream task.
  const FeatureSpace& space = run.space();
  EAFE_RETURN_NOT_OK(run.ScoreBase());

  // Stage-2 replay queue (Algorithm 2 line 16: "Get feature from replay
  // buffer"): the FPE-positive features stage 1 stored, most promising
  // first. They are evaluated before fresh exploration — stage 1 already
  // paid the screening cost, so stage 2's first downstream evaluations go
  // to pre-vetted candidates.
  std::vector<ReplayEntry> replay_queue =
      options_.variant == Variant::kFull ? replay_.SortedByProbability()
                                         : std::vector<ReplayEntry>();
  const size_t total_steps = options_.search.epochs *
                             options_.search.steps_per_agent *
                             std::max<size_t>(agents.size(), 1);
  const size_t replay_budget = static_cast<size_t>(
      options_.replay_fraction * static_cast<double>(total_steps));
  if (replay_queue.size() > replay_budget) {
    replay_queue.resize(replay_budget);
  }
  size_t replay_cursor = 0;

  for (size_t epoch = 0; epoch < options_.search.epochs; ++epoch) {
    const double progress = static_cast<double>(epoch) /
                            static_cast<double>(options_.search.epochs);
    // Generation runs against the frame (the space frozen at epoch
    // start); every result-affecting RNG draw — action samples, replay
    // bias, random-drop verdicts — happens here on the calling thread,
    // so the stream is identical at any --threads. Rewards, accepts,
    // and policy updates happen at the merge barrier below.
    // Within an episode the agent state uses the previous *sampled*
    // action and a zero reward placeholder (rewards are unknown until
    // the merge); the recorded REINFORCE action is fixed up at merge
    // time to the attempt the filter chose.
    SearchStepPipeline pipeline = run.StartEpoch();
    for (size_t group = 0; group < space.num_groups(); ++group) {
      RnnAgent& agent = agents[group];
      agent.ResetEpisode();
      int last_action = -1;
      for (size_t step = 0; step < options_.search.steps_per_agent; ++step) {
        const std::vector<double> state = BuildAgentState(
            last_action, 0.0, space.group(group).size(), progress);
        const std::vector<double> probs = agent.Step(state);

        StepTask task;
        task.group = group;

        // Replay phase: consume the pre-screened stage-1 features first.
        if (replay_cursor < replay_queue.size()) {
          const ReplayEntry& entry = replay_queue[replay_cursor++];
          task.accept_group = entry.group;
          task.pre_vetted = true;  // Stage 1 already screened it.
          // Already in the frame: keep the recorded action but let the
          // filter and eval steps pass the task through untouched.
          task.skipped = space.Contains(entry.group, entry.column.name());
          StepAttempt attempt;
          attempt.action_index = static_cast<size_t>(entry.op);
          attempt.generated = true;
          attempt.candidate.column = entry.column;
          attempt.candidate.order = entry.order;
          task.attempts.push_back(std::move(attempt));
          last_action = static_cast<int>(entry.op);
          pipeline.Submit(std::move(task));
          continue;
        }

        // Fresh phase: pre-draw every generation attempt — the filter
        // stage keeps the first that passes. Retrying generation saves
        // evaluations, not generation (Table I shows generation is
        // negligible). The policy probs stay fixed within the step, so
        // the single recorded action stays a valid REINFORCE sample.
        task.accept_group = group;
        for (size_t attempt_index = 0;
             attempt_index <
             std::max<size_t>(options_.max_generation_attempts, 1);
             ++attempt_index) {
          size_t action_index = agent.SampleAction(probs, &rng);
          // Bias fresh generation toward operators that produced
          // FPE-positive features in stage 1.
          const bool use_replay =
              options_.variant == Variant::kFull && !replay_.empty() &&
              rng.Bernoulli(kReplayBias * (1.0 - progress));
          if (use_replay) {
            action_index = static_cast<size_t>(replay_.Sample(&rng).op);
          }
          const Operator op = AllOperators()[action_index];

          Stopwatch gen_watch;
          const FeatureSpace::Action action =
              space.MakeAction(group, op, &rng);
          auto candidate = space.GenerateCandidate(action);
          result.generation_seconds += gen_watch.ElapsedSeconds();

          StepAttempt attempt;
          attempt.action_index = action_index;
          if (candidate.ok()) {
            ++result.features_generated;
            attempt.generated = true;
            attempt.candidate = std::move(candidate).ValueOrDie();
            if (options_.variant == Variant::kRandomDrop) {
              attempt.forced_verdict =
                  rng.Bernoulli(options_.random_drop_pass_rate);
            }
          }
          task.attempts.push_back(std::move(attempt));
        }
        last_action = static_cast<int>(task.attempts.back().action_index);
        pipeline.Submit(std::move(task));
      }
    }
    EAFE_ASSIGN_OR_RETURN(auto tasks, pipeline.Finish());

    // Merge, then one policy update per agent.
    size_t task_index = 0;
    for (size_t group = 0; group < space.num_groups(); ++group) {
      std::vector<size_t> actions;
      std::vector<double> rewards;
      for (size_t step = 0; step < options_.search.steps_per_agent; ++step) {
        StepTask& task = tasks[task_index++];
        rewards.push_back(run.Merge(task));
        // The recorded REINFORCE action: the attempt the filter chose
        // when one passed, otherwise the last sampled attempt.
        actions.push_back(
            task.chosen >= 0
                ? task.attempts[static_cast<size_t>(task.chosen)].action_index
                : task.attempts.back().action_index);
      }
      // kFull / kRandomDrop use the Eq. 10 lambda-return; the
      // kPolicyGradient ablation uses NFS-style discounted returns.
      if (options_.variant == Variant::kPolicyGradient) {
        agents[group].Update(actions, DiscountedReturns(rewards, kGamma));
      } else {
        agents[group].Update(actions, LambdaReturns(rewards, kGamma, kLambda));
      }
    }

    if (run.EndEpoch(epoch)) break;
  }
  return run.Finish();
}

}  // namespace eafe::afe
