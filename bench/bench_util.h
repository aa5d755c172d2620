#ifndef EAFE_BENCH_BENCH_UTIL_H_
#define EAFE_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "afe/eafe.h"
#include "afe/fpe_pretraining.h"
#include "afe/nfs.h"
#include "afe/random_search.h"
#include "core/flags.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "ml/evaluator.h"

namespace eafe::bench {

/// Scale profile shared by the experiment harnesses. `quick` (default)
/// reproduces every table/figure at laptop scale in seconds-to-minutes;
/// `--full` raises the budgets toward the paper's settings (200 epochs,
/// all 36 datasets) at proportionally higher cost.
struct BenchConfig {
  bool full = false;
  uint64_t seed = 7;
  /// Dataset materialization caps.
  size_t max_samples = 500;
  size_t max_features = 12;
  /// Search budgets.
  size_t epochs = 8;
  size_t steps_per_agent = 3;
  /// Stage-1 pre-screening epochs. FPE inference is orders of magnitude
  /// cheaper than a downstream evaluation (Table I), so a generous
  /// initialization budget is nearly free.
  size_t stage1_epochs = 8;
  /// Downstream task.
  size_t cv_folds = 3;
  size_t rf_trees = 8;
  size_t rf_max_depth = 5;
  /// FPE pretraining.
  size_t public_datasets = 8;
  size_t generated_per_dataset = 16;
  /// Number of target datasets from the registry (0 = all 36).
  size_t num_datasets = 8;
  /// Worker threads for the concurrent evaluation runtime (1 = serial).
  /// ConfigFromFlags applies this to runtime::SetGlobalThreads.
  size_t threads = 1;
  /// Downstream evaluator family for every search/evaluation in the run
  /// (--downstream rf|tree|gbdt|logreg|svm|nb_gp|mlp|resnet).
  ml::ModelKind downstream = ml::ModelKind::kRandomForest;

  ml::EvaluatorOptions EvaluatorOptions() const;
  afe::SearchOptions SearchOptions() const;
  data::MaterializeOptions MaterializeOptions() const;
};

/// Declares the standard flags (--full, --seed, --datasets, --epochs,
/// --threads) on a parser; call before Parse.
void AddStandardFlags(FlagParser* parser);

/// Builds the config from parsed flags, applying the full-scale overrides
/// when --full was passed.
BenchConfig ConfigFromFlags(const FlagParser& parser);

/// Parses flags and exits the process on --help or a flag error. Returns
/// the resulting config.
BenchConfig ParseStandardFlags(int argc, char** argv);

/// The first `config.num_datasets` registry entries (all 36 when 0),
/// ordered as in Table III but with small/medium shapes first under quick
/// mode so the default subset stays cheap.
std::vector<data::DatasetInfo> SelectDatasets(const BenchConfig& config);

/// Materializes a registered dataset under the config's caps.
data::Dataset Materialize(const data::DatasetInfo& info,
                          const BenchConfig& config);

/// Pre-trains one FPE model per requested MinHash scheme on a shared
/// label pool (the expensive leave-one-out labeling runs once).
struct FpeBundle {
  /// Keyed in the order of `schemes` passed to PretrainFpeBundle.
  std::vector<hashing::MinHashScheme> schemes;
  std::vector<std::unique_ptr<fpe::FpeModel>> models;
  fpe::FpeTrainingResult base;  ///< Result for the first scheme.

  const fpe::FpeModel& model(hashing::MinHashScheme scheme) const;
};

FpeBundle PretrainFpeBundle(const BenchConfig& config,
                            const std::vector<hashing::MinHashScheme>& schemes);

/// Constructs the named search method. `fpe` may be null for methods that
/// do not need it (AutoFS_R, NFS, E-AFE_D).
std::unique_ptr<afe::FeatureSearch> MakeSearch(
    const std::string& method, const BenchConfig& config,
    const fpe::FpeModel* fpe);

/// Scores a dataset with a specific downstream model kind (used by the
/// RTDL_N / FE|DL / DL|FE constructions and Table V).
Result<double> ScoreWithModel(const data::Dataset& dataset,
                              ml::ModelKind kind, const BenchConfig& config);

/// The RTDL_N construction: train a TabularResNet, extract the
/// penultimate representation, and score it with the RF downstream task.
Result<double> ScoreResNetRf(const data::Dataset& dataset,
                             const BenchConfig& config);

/// DL|FE: ResNet representation -> RF-importance feature selection (top
/// half) -> RF downstream score.
Result<double> ScoreDlThenFe(const data::Dataset& dataset,
                             const BenchConfig& config);

/// FE|DL: feature-engineered dataset (from a search result) scored by the
/// ResNet downstream task.
Result<double> ScoreFeThenDl(const data::Dataset& engineered,
                             const BenchConfig& config);

}  // namespace eafe::bench

#endif  // EAFE_BENCH_BENCH_UTIL_H_
