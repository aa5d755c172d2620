#include "afe/search_pipeline.h"

#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/stopwatch.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

/// Filter step: pick the first attempt that passes the configured
/// pre-evaluation filter. Pure in (config, task) — kRandomDrop verdicts
/// were pre-drawn at generation and FpeModel::PredictProbability is
/// const — so concurrent execution cannot change which attempt wins.
void FilterStage(const StepPipelineConfig& config, StepTask& task) {
  if (!task.status.ok() || task.skipped) return;
  if (task.pre_vetted) {
    task.chosen = task.attempts.empty() ? -1 : 0;
    return;
  }
  for (size_t i = 0; i < task.attempts.size(); ++i) {
    const StepAttempt& attempt = task.attempts[i];
    if (!attempt.generated) continue;
    bool passes = true;
    switch (config.filter) {
      case StepFilter::kNone:
        break;
      case StepFilter::kRandomDrop:
        passes = attempt.forced_verdict;
        break;
      case StepFilter::kFpe: {
        auto probability = config.fpe_model->PredictProbability(
            attempt.candidate.column.values());
        if (!probability.ok()) {
          task.status = probability.status();
          return;
        }
        passes = *probability >= config.fpe_accept_threshold;
        break;
      }
    }
    if (passes) {
      task.chosen = static_cast<int>(i);
      return;
    }
  }
}

/// Eval step: absolute downstream score of frame + chosen candidate.
/// Goes through EvalService::ScoreDataset so scores are cached and the
/// evaluator's request accounting matches the serial path exactly.
/// BuildCandidateDataset appends the candidate after the frame's columns,
/// which is the layout `frame_bins` extend.
void EvalStage(const FeatureSpace& frame, const ml::FeatureBinner* frame_bins,
               EvalService& eval_service, StepTask& task) {
  if (!task.status.ok() || task.chosen < 0) return;
  Stopwatch watch;
  auto dataset = BuildCandidateDataset(
      frame, task.attempts[static_cast<size_t>(task.chosen)].candidate);
  if (!dataset.ok()) {
    task.status = dataset.status();
    return;
  }
  auto score = eval_service.ScoreDataset(*dataset, frame_bins);
  if (!score.ok()) {
    task.status = score.status();
    return;
  }
  task.score = *score;
  task.evaluated = true;
  task.eval_seconds = watch.ElapsedSeconds();
}

}  // namespace

SearchStepPipeline::SearchStepPipeline(const StepPipelineConfig& config,
                                       const FeatureSpace* frame,
                                       EvalService* eval_service)
    : config_(config), frame_(frame), eval_service_(eval_service) {
  // The frame does not change until the epoch barrier, so its columns are
  // binned here once instead of inside every evaluation.
  auto frame_bins = eval_service->evaluator().BinFrame(frame->ToDataset());
  if (frame_bins.ok()) frame_bins_ = std::move(frame_bins).ValueOrDie();
  if (!runtime::ThreadPool::OnWorkerThread()) pool_ = runtime::GlobalPool();
  // The `eval` family under the registered `eafe_pipeline` prefix.
  const std::string family = std::string("eafe_pipeline") + "_eval";
  runtime::MetricGateway* metrics = runtime::GlobalMetrics();
  busy_ = metrics->Gauge(family + "_busy_workers",
                         "Threads currently filtering or evaluating a task");
  items_ = metrics->Counter(family + "_items_total",
                            "Search tasks filtered and evaluated");
}

SearchStepPipeline::~SearchStepPipeline() {
  // Pool tasks reference tasks_ and the frame; none may outlive them.
  for (std::future<void>& done : done_) {
    if (done.valid()) done.wait();
  }
}

void SearchStepPipeline::Run(StepTask& task) {
  busy_->Add(1);
  FilterStage(config_, task);
  EvalStage(*frame_, frame_bins_.get(), *eval_service_, task);
  busy_->Add(-1);
  items_->Increment();
}

void SearchStepPipeline::Submit(StepTask task) {
  StepTask& slot = tasks_.emplace_back(std::move(task));
  if (pool_ == nullptr) {
    Run(slot);
    return;
  }
  // A ParallelFor nested inside the task runs inline on its worker.
  done_.push_back(pool_->Submit([this, &slot] { Run(slot); }));
}

Result<std::vector<StepTask>> SearchStepPipeline::Finish() {
  for (std::future<void>& done : done_) done.get();
  std::vector<StepTask> tasks(std::make_move_iterator(tasks_.begin()),
                              std::make_move_iterator(tasks_.end()));
  // Surface the first step failure in submission order so error
  // reporting is independent of scheduling.
  for (const StepTask& task : tasks) {
    EAFE_RETURN_NOT_OK(task.status);
  }
  return tasks;
}

std::vector<RnnAgent> MakeAgents(size_t groups, Rng* rng) {
  std::vector<RnnAgent> agents;
  agents.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    RnnAgent::Options options;
    options.input_dim = kAgentStateDim;
    options.num_actions = kNumOperators;
    options.seed = rng->Next();
    agents.emplace_back(options);
  }
  return agents;
}

SearchRun::SearchRun(const SearchOptions& options, std::string method,
                     const data::Dataset& dataset,
                     const StepPipelineConfig& pipeline)
    : options_(options),
      dataset_(dataset),
      pipeline_(pipeline),
      evaluator_(options.evaluator),
      eval_service_(&evaluator_),
      // The search's order cap, FeatureSpace's default group cap.
      space_(dataset, {.max_order = options.max_order}) {
  result_.method = std::move(method);
}

Status SearchRun::ScoreBase() {
  Stopwatch watch;
  EAFE_ASSIGN_OR_RETURN(result_.base_score, evaluator_.Score(dataset_));
  result_.evaluation_seconds += watch.ElapsedSeconds();
  result_.best_score = result_.base_score;
  return Status::OK();
}

SearchStepPipeline SearchRun::StartEpoch() {
  return SearchStepPipeline(pipeline_, &space_, &eval_service_);
}

double SearchRun::Merge(StepTask& task) {
  if (!task.evaluated) return 0.0;
  result_.evaluation_seconds += task.eval_seconds;
  ++result_.features_evaluated;
  const double gain = task.score - result_.best_score;
  SpaceFeature& candidate =
      task.attempts[static_cast<size_t>(task.chosen)].candidate;
  if (gain > options_.accept_margin &&
      !space_.Contains(task.accept_group, candidate.column.name()) &&
      space_.Accept(task.accept_group, std::move(candidate)).ok()) {
    result_.best_score += gain;
    ++result_.features_kept;
  }
  return gain;
}

bool SearchRun::EndEpoch(size_t epoch) {
  EpochStats stats;
  stats.epoch = epoch;
  stats.best_score = result_.best_score;
  stats.elapsed_seconds = watch_.ElapsedSeconds();
  stats.cumulative_evaluations = evaluator_.evaluation_count();
  stats.features_generated = result_.features_generated;
  result_.curve.push_back(stats);
  stale_epochs_ =
      result_.features_kept > kept_at_epoch_start_ ? 0 : stale_epochs_ + 1;
  kept_at_epoch_start_ = result_.features_kept;
  return options_.early_stop_patience > 0 &&
         stale_epochs_ >= options_.early_stop_patience;
}

Result<SearchResult> SearchRun::Finish() {
  result_.best_dataset = space_.ToDataset();
  result_.downstream_evaluations = evaluator_.evaluation_count();
  result_.eval_cache_hits = eval_service_.cache_hits();
  EAFE_RETURN_NOT_OK(FinalizeSearchResult(options_, dataset_, &result_));
  result_.total_seconds = watch_.ElapsedSeconds();
  return std::move(result_);
}

}  // namespace eafe::afe
