#ifndef EAFE_AFE_SEARCH_PIPELINE_H_
#define EAFE_AFE_SEARCH_PIPELINE_H_

#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "afe/agent.h"
#include "afe/eval_service.h"
#include "afe/feature_space.h"
#include "afe/search.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/stopwatch.h"
#include "data/dataframe.h"
#include "fpe/fpe_model.h"
#include "ml/feature_binner.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {

/// The per-epoch candidate pipeline shared by every search driver
/// (DESIGN.md §12). Each epoch the driver freezes the feature space (the
/// "frame"), generates one StepTask per (group, step) on the calling
/// thread — all result-affecting randomness is pre-drawn there — and
/// submits it. Each task is one pool task that runs both of its steps: the
/// filter (MinHash/FPE probability or a pre-drawn random-drop verdict)
/// picks the first passing attempt, then the evaluation scores
/// frame+candidate on the downstream task. Finish() returns the tasks in
/// submission order, and SearchRun::Merge folds them in — rewards and
/// greedy accepts — at the epoch barrier, before the driver's policy
/// updates. Both steps are pure functions of (frame, task), which is what
/// makes a search bit-identical at any --threads.

/// One generation attempt within a step. Drivers that retry generation
/// (E-AFE with max_generation_attempts > 1) pre-draw every attempt; the
/// filter step scans them in order and keeps the first that passes.
struct StepAttempt {
  /// Operator index the agent sampled (recorded for REINFORCE).
  size_t action_index = 0;
  /// Whether GenerateCandidate succeeded (duplicates, over-order and
  /// constant columns fail at generation time and never reach the
  /// filter).
  bool generated = false;
  SpaceFeature candidate;
  /// Pre-drawn pass verdict for the E-AFE_D random-drop filter (drawn
  /// at generation so the RNG stream is independent of scheduling).
  bool forced_verdict = false;
};

/// One (group, step) unit of work flowing through the pipeline.
struct StepTask {
  /// Episode group — which agent's action/reward record this step
  /// belongs to.
  size_t group = 0;
  /// Group a kept candidate is accepted into (differs from `group` for
  /// replayed stage-1 features).
  size_t accept_group = 0;
  std::vector<StepAttempt> attempts;
  /// Replayed stage-1 feature: skip the filter (stage 1 already
  /// screened it) and evaluate directly.
  bool pre_vetted = false;
  /// True when there is no work at all (e.g. a replayed feature already
  /// present in the frame).
  bool skipped = false;

  // Filter-step outputs.
  /// Index of the first attempt that passed the filter; -1 when none
  /// did (or nothing was generated).
  int chosen = -1;

  // Eval-step outputs.
  bool evaluated = false;
  /// Absolute downstream score of frame + chosen candidate.
  /// SearchRun::Merge turns it into a gain against the running best.
  double score = 0.0;
  /// Wall time this evaluation took on its worker (summed into
  /// SearchResult::evaluation_seconds — cumulative compute, not wall
  /// clock).
  double eval_seconds = 0.0;
  /// First error hit by a step; the eval step skips a task the filter
  /// failed, and Finish() returns the first failure in sequence order.
  Status status;
};

/// Which pre-evaluation filter the filter step applies.
enum class StepFilter {
  kNone,        ///< Every generated candidate goes to evaluation.
  kFpe,         ///< FPE probability >= threshold (E-AFE / E-AFE_R).
  kRandomDrop,  ///< Pre-drawn Bernoulli verdict (E-AFE_D ablation).
};

struct StepPipelineConfig {
  StepFilter filter = StepFilter::kNone;
  /// Required (trained) when filter == kFpe; not owned.
  const fpe::FpeModel* fpe_model = nullptr;
  double fpe_accept_threshold = 0.55;
};

/// One epoch's worth of pipeline: construct against the frozen frame,
/// Submit() every StepTask in (group, step) order, then Finish() to wait
/// for them and get them back in submission order. Each Submit hands the
/// global pool one task that filters, then evaluates, its StepTask, and
/// the pool's own FIFO queue gives it to whichever worker is free. With
/// no pool (--threads=1), or when constructed on a pool worker (nested
/// pipelines degrade like nested ParallelFor), Submit runs both steps
/// inline. The frame and eval service must outlive the pipeline, and the
/// caller must not mutate the frame until Finish() returns.
///
/// Construction bins the frame once (TaskEvaluator::BinFrame, so the
/// downstream model's own binner options apply), and every evaluation of
/// the epoch bins only its candidate column on top of those bins.
class SearchStepPipeline {
 public:
  SearchStepPipeline(const StepPipelineConfig& config,
                     const FeatureSpace* frame, EvalService* eval_service);
  ~SearchStepPipeline();

  SearchStepPipeline(const SearchStepPipeline&) = delete;
  SearchStepPipeline& operator=(const SearchStepPipeline&) = delete;

  /// True when tasks run on the pool workers (reporting only; results
  /// are identical either way).
  bool async() const { return pool_ != nullptr; }

  /// Never blocks on the pool; runs both steps first when inline.
  void Submit(StepTask task);

  /// Waits for every submitted task and returns them in submission
  /// order, or the first failure in that order. Call exactly once.
  Result<std::vector<StepTask>> Finish();

 private:
  /// Filters, then evaluates, one task.
  void Run(StepTask& task);

  const StepPipelineConfig config_;
  const FeatureSpace* const frame_;
  EvalService* const eval_service_;
  /// The frame's bins; null when the downstream model cannot share bins
  /// or binning failed (each evaluation then bins its whole table and
  /// reports its own error).
  std::shared_ptr<const ml::FeatureBinner> frame_bins_;
  /// Null in inline mode.
  runtime::ThreadPool* pool_ = nullptr;
  runtime::MetricGauge* busy_ = nullptr;
  runtime::MetricCounter* items_ = nullptr;
  /// Submitted tasks; a deque never moves its elements, so a pool task
  /// can hold a reference to its own while Submit appends more.
  std::deque<StepTask> tasks_;
  /// One future per pool task, in submission order (empty when inline).
  std::vector<std::future<void>> done_;
};

/// One RNN controller per feature group (NFS and E-AFE), each seeded by
/// one draw from `rng`, in group order.
std::vector<RnnAgent> MakeAgents(size_t groups, Rng* rng);

/// The stage-2 epoch skeleton all three search drivers share: it owns the
/// downstream evaluator, its EvalService, the live feature space and the
/// result. Per epoch a driver generates against space(), runs a
/// StartEpoch() pipeline, Merge()s its tasks in submission order, updates
/// its policy from the rewards, and stops when EndEpoch() says so.
class SearchRun {
 public:
  /// Starts the run's clock. `dataset` must be valid and outlive the run;
  /// `pipeline` configures every epoch's filter step.
  SearchRun(const SearchOptions& options, std::string method,
            const data::Dataset& dataset,
            const StepPipelineConfig& pipeline = StepPipelineConfig());

  SearchRun(const SearchRun&) = delete;
  SearchRun& operator=(const SearchRun&) = delete;

  /// Scores the raw features: the running best the first merge compares
  /// against.
  Status ScoreBase();

  /// The live feature space. Only Merge changes it, so it is the frozen
  /// frame while an epoch's pipeline runs.
  const FeatureSpace& space() const { return space_; }
  /// The result under construction; drivers add their generation counts
  /// and times.
  SearchResult& result() { return result_; }

  /// A pipeline for the next epoch, against the space as it stands.
  SearchStepPipeline StartEpoch();

  /// Merges one finished task. An evaluated task's candidate is accepted
  /// when its gain over the running best exceeds accept_margin, its name
  /// is new to the accept group (two tasks of one epoch can generate the
  /// same name) and the group has room. Returns the task's reward: that
  /// gain, accepted or not, or 0 for an unevaluated task.
  double Merge(StepTask& task);

  /// Closes `epoch`: appends its learning-curve point, and returns true
  /// when early stopping fires — early_stop_patience (> 0) consecutive
  /// epochs have accepted nothing.
  bool EndEpoch(size_t epoch);

  /// Fills in the selected table and counts, re-scores base and best
  /// (FinalizeSearchResult) and stops the clock. Call once, last.
  Result<SearchResult> Finish();

 private:
  const SearchOptions options_;
  const data::Dataset& dataset_;
  const StepPipelineConfig pipeline_;
  Stopwatch watch_;
  ml::TaskEvaluator evaluator_;
  EvalService eval_service_;
  FeatureSpace space_;
  SearchResult result_;
  /// features_kept when the current epoch started.
  size_t kept_at_epoch_start_ = 0;
  /// Consecutive closed epochs that accepted nothing.
  size_t stale_epochs_ = 0;
};

}  // namespace eafe::afe

#endif  // EAFE_AFE_SEARCH_PIPELINE_H_
