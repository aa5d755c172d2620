#ifndef EAFE_AFE_SEARCH_H_
#define EAFE_AFE_SEARCH_H_

#include <string>
#include <vector>

#include "afe/feature_space.h"
#include "core/status.h"
#include "data/dataframe.h"
#include "ml/evaluator.h"

namespace eafe::afe {

/// The search's one executor, the global pool (DESIGN.md §12). Nothing
/// reads it: it stays only because the frozen benchmark harness
/// (`e2ebench/main.cc`) assigns SearchOptions::pipeline.
enum class PipelineMode {
  kAsync,  ///< Every global-pool thread runs tasks.
};

/// Common knobs for every AFE search method, so comparisons run under the
/// same generation and evaluation budget.
struct SearchOptions {
  /// Policy-training epochs (the paper runs 200; the benches default far
  /// lower and scale up under --full).
  size_t epochs = 12;
  /// T: transformation steps each agent takes per epoch.
  size_t steps_per_agent = 3;
  /// Maximum transformation order (paper default 5).
  size_t max_order = 5;
  /// Downstream task (the formal evaluation).
  ml::EvaluatorOptions evaluator;
  uint64_t seed = 123;
  /// A candidate is kept only when its evaluation gain exceeds this
  /// margin. Cross-validated gains carry fold noise; a margin keeps
  /// noise-only "improvements" out of the state for every method.
  double accept_margin = 0.005;
  /// Unread; see PipelineMode.
  PipelineMode pipeline = PipelineMode::kAsync;
};

/// Score/efficiency snapshot at the end of one epoch, for learning curves
/// (Fig. 7) and time accounting.
struct EpochStats {
  size_t epoch = 0;
  double best_score = 0.0;
  double elapsed_seconds = 0.0;
  size_t cumulative_evaluations = 0;
  size_t features_generated = 0;
};

/// Outcome of one AFE search run.
struct SearchResult {
  std::string method;
  /// Downstream score of the raw features, re-scored on held-out CV seeds
  /// (FinalizeSearchResult).
  double base_score = 0.0;
  /// Downstream score of the selected feature set, re-scored on held-out
  /// CV seeds (FinalizeSearchResult).
  double best_score = 0.0;
  /// The accumulated greedy score the search itself optimized (biased
  /// upward by CV noise; kept for diagnostics).
  double search_score = 0.0;
  data::Dataset best_dataset;
  std::vector<EpochStats> curve;
  /// Evaluations requested, the base score's included (Table IV).
  size_t downstream_evaluations = 0;
  size_t features_generated = 0;
  size_t features_evaluated = 0;  ///< Candidates sent to the downstream task.
  /// Evaluation requests the evaluation memo answered without a model fit
  /// (subset of features_evaluated; the fits paid are
  /// downstream_evaluations minus this, one per distinct signature).
  size_t eval_cache_hits = 0;
  size_t features_kept = 0;
  double generation_seconds = 0.0;
  /// Cumulative per-candidate evaluation time summed across pool
  /// workers. At --threads > 1 evaluations overlap, so this can exceed
  /// total_seconds — compare it across runs as compute spent, not as a
  /// share of the wall clock.
  double evaluation_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Interface shared by NFS, AutoFS_R, and the E-AFE variants.
class FeatureSearch {
 public:
  virtual ~FeatureSearch() = default;
  virtual std::string name() const = 0;
  /// Runs the full search on a target dataset.
  virtual Result<SearchResult> Run(const data::Dataset& dataset) = 0;
};

/// Builds the agent's state vector s_t: one-hot of the previous action
/// (kNumOperators entries; all zero on the first round), followed by
/// [normalized subgroup size, last reward, epoch progress]. Total
/// dimension kNumOperators + 3 — keep RnnAgent::Options::input_dim in
/// sync.
std::vector<double> BuildAgentState(int last_action, double last_reward,
                                    size_t group_size, double progress);

/// Agent-state dimension (see BuildAgentState).
constexpr size_t kAgentStateDim = kNumOperators + 3;

/// The dataset a candidate is scored on: the current state plus the
/// candidate column (renamed with a "#cand" suffix on a name collision;
/// any other AddColumn error, such as a row-count mismatch, is returned
/// as is). The search pipeline's eval step scores these tables.
Result<data::Dataset> BuildCandidateDataset(const FeatureSpace& space,
                                            const SpaceFeature& candidate);

/// Moves the accumulated greedy score into `result->search_score` and
/// replaces base/best scores with held-out-seed evaluations of the raw
/// and selected feature sets: the greedy score carries a winner's-curse
/// bias that grows with the number of candidate evaluations.
Status FinalizeSearchResult(const SearchOptions& options,
                            const data::Dataset& base_dataset,
                            SearchResult* result);

}  // namespace eafe::afe

#endif  // EAFE_AFE_SEARCH_H_
