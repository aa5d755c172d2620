#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/check.h"
#include "data/split.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/resnet.h"
#include "runtime/thread_pool.h"

namespace eafe::bench {

ml::EvaluatorOptions BenchConfig::EvaluatorOptions() const {
  ml::EvaluatorOptions options;
  options.model = downstream;
  options.cv_folds = cv_folds;
  options.rf_trees = rf_trees;
  options.rf_max_depth = rf_max_depth;
  options.seed = seed;
  return options;
}

afe::SearchOptions BenchConfig::SearchOptions() const {
  afe::SearchOptions options;
  options.epochs = epochs;
  options.steps_per_agent = steps_per_agent;
  options.evaluator = EvaluatorOptions();
  options.seed = seed + 101;
  return options;
}

data::MaterializeOptions BenchConfig::MaterializeOptions() const {
  data::MaterializeOptions options;
  options.max_samples = max_samples;
  options.max_features = max_features;
  options.seed = seed;
  return options;
}

void AddStandardFlags(FlagParser* parser) {
  parser->AddBool("full", false,
                  "paper-scale run (all datasets, more epochs)")
      .AddInt("seed", 7, "global random seed")
      .AddInt("datasets", 0, "number of target datasets (0 = profile default)")
      .AddInt("epochs", 0, "training epochs (0 = profile default)")
      .AddString("downstream", "rf",
                 "downstream evaluator: "
                 "rf|tree|gbdt|logreg|svm|nb_gp|mlp|resnet")
      .AddThreads();
}

BenchConfig ConfigFromFlags(const FlagParser& parser) {
  BenchConfig config;
  config.full = parser.GetBool("full");
  config.seed = static_cast<uint64_t>(parser.GetInt("seed"));
  if (config.full) {
    config.max_samples = 2000;
    config.max_features = 24;
    config.epochs = 40;
    config.stage1_epochs = 40;
    config.cv_folds = 5;
    config.rf_trees = 10;
    config.rf_max_depth = 6;
    config.public_datasets = 24;
    config.generated_per_dataset = 24;
    config.num_datasets = 0;  // All 36.
  }
  if (parser.GetInt("datasets") > 0) {
    config.num_datasets = static_cast<size_t>(parser.GetInt("datasets"));
  }
  if (parser.GetInt("epochs") > 0) {
    config.epochs = static_cast<size_t>(parser.GetInt("epochs"));
  }
  auto downstream = ml::ModelKindFromString(parser.GetString("downstream"));
  if (!downstream.ok()) {
    std::fprintf(stderr, "%s\n", downstream.status().ToString().c_str());
    std::exit(1);
  }
  config.downstream = downstream.ValueOrDie();
  config.threads = static_cast<size_t>(parser.GetInt("threads"));
  runtime::SetGlobalThreads(config.threads);
  return config;
}

BenchConfig ParseStandardFlags(int argc, char** argv) {
  FlagParser parser;
  AddStandardFlags(&parser);
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) std::exit(0);  // --help.
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage(argv[0]).c_str());
    std::exit(1);
  }
  return ConfigFromFlags(parser);
}

std::vector<data::DatasetInfo> SelectDatasets(const BenchConfig& config) {
  std::vector<data::DatasetInfo> all = data::PaperTargetDatasets();
  if (config.num_datasets == 0 || config.num_datasets >= all.size()) {
    return all;
  }
  // Drop the tiny tables (labor 57x8, fertility 100x9, ...) from default
  // subsets: their cross-validated scores are too noisy to rank methods.
  std::erase_if(all, [](const data::DatasetInfo& info) {
    return info.paper_samples < 150;
  });
  // Favor small/medium shapes for the default subset while keeping the
  // classification/regression mix: sort by capped cost, stable on name.
  std::stable_sort(all.begin(), all.end(),
                   [&](const data::DatasetInfo& a,
                       const data::DatasetInfo& b) {
                     auto cost = [&](const data::DatasetInfo& info) {
                       return std::min(info.paper_samples,
                                       config.max_samples) *
                              std::min(info.paper_features,
                                       config.max_features);
                     };
                     return cost(a) < cost(b);
                   });
  // Take the cheapest while ensuring at least two regression entries.
  std::vector<data::DatasetInfo> selected;
  size_t regression = 0;
  for (const data::DatasetInfo& info : all) {
    if (selected.size() >= config.num_datasets) break;
    selected.push_back(info);
    regression += info.task == data::TaskType::kRegression;
  }
  if (regression < 2) {
    for (const data::DatasetInfo& info : all) {
      if (regression >= 2 || selected.size() < 2) break;
      if (info.task == data::TaskType::kRegression &&
          std::none_of(selected.begin(), selected.end(),
                       [&](const data::DatasetInfo& s) {
                         return s.name == info.name;
                       })) {
        selected[selected.size() - 1 - regression] = info;
        ++regression;
      }
    }
  }
  return selected;
}

data::Dataset Materialize(const data::DatasetInfo& info,
                          const BenchConfig& config) {
  auto dataset = data::MakeTargetDataset(info, config.MaterializeOptions());
  EAFE_CHECK_MSG(dataset.ok(), info.name.c_str());
  return std::move(dataset).ValueOrDie();
}

const fpe::FpeModel& FpeBundle::model(hashing::MinHashScheme scheme) const {
  for (size_t i = 0; i < schemes.size(); ++i) {
    if (schemes[i] == scheme) return *models[i];
  }
  EAFE_CHECK_MSG(false, "scheme not in bundle");
  return *models[0];
}

FpeBundle PretrainFpeBundle(
    const BenchConfig& config,
    const std::vector<hashing::MinHashScheme>& schemes) {
  EAFE_CHECK(!schemes.empty());
  afe::FpePretrainingOptions options;
  options.trainer.dimensions = {48};
  options.trainer.schemes = {schemes[0]};
  options.trainer.evaluator = config.EvaluatorOptions();
  options.generated_per_dataset = config.generated_per_dataset;
  options.seed = config.seed + 31;

  const auto public_datasets = data::MakePublicCollection(
      config.public_datasets, 141.0 / 239.0, config.seed + 99);
  auto base = afe::PretrainFpe(public_datasets, options);
  EAFE_CHECK_MSG(base.ok(), base.status().ToString().c_str());

  FpeBundle bundle;
  bundle.base = std::move(base).ValueOrDie();
  bundle.schemes = schemes;
  bundle.models.push_back(
      std::make_unique<fpe::FpeModel>(bundle.base.model));
  // Remaining schemes reuse the already-labeled pool (the expensive part).
  for (size_t i = 1; i < schemes.size(); ++i) {
    auto model = std::make_unique<fpe::FpeModel>();
    const auto metrics = fpe::EvaluateCandidate(
        bundle.base.training_features, bundle.base.validation_features,
        schemes[i], 48, config.seed + 31, model.get());
    EAFE_CHECK_MSG(metrics.ok(), metrics.status().ToString().c_str());
    bundle.models.push_back(std::move(model));
  }
  return bundle;
}

std::unique_ptr<afe::FeatureSearch> MakeSearch(const std::string& method,
                                               const BenchConfig& config,
                                               const fpe::FpeModel* fpe) {
  const afe::SearchOptions search = config.SearchOptions();
  if (method == "AutoFS_R" || method == "FS_R") {
    return std::make_unique<afe::RandomSearch>(search);
  }
  if (method == "NFS") {
    return std::make_unique<afe::NfsSearch>(search);
  }
  afe::EafeSearch::Options options;
  options.search = search;
  options.stage1_epochs = config.stage1_epochs;
  options.fpe_model = fpe;
  if (method == "E-AFE_D") {
    options.variant = afe::EafeSearch::Variant::kRandomDrop;
    options.fpe_model = nullptr;
  } else if (method == "E-AFE_R") {
    options.variant = afe::EafeSearch::Variant::kPolicyGradient;
  } else {
    EAFE_CHECK_MSG(method == "E-AFE", method.c_str());
  }
  return std::make_unique<afe::EafeSearch>(options);
}

Result<double> ScoreWithModel(const data::Dataset& dataset,
                              ml::ModelKind kind, const BenchConfig& config) {
  ml::EvaluatorOptions options = config.EvaluatorOptions();
  options.model = kind;
  ml::TaskEvaluator evaluator(options);
  return evaluator.Score(dataset);
}

namespace {

/// Fits a ResNet on a training split only and returns the train/test
/// representation datasets. The paper's DNN protocol pre-divides the data
/// (no cross-validation for the network), which is exactly what costs
/// RTDL_N its robustness on small datasets — the representation must be
/// learned without seeing the evaluation rows.
struct ResNetSplit {
  data::Dataset train;
  data::Dataset test;
};

Result<ResNetSplit> FitResNetRepresentation(const data::Dataset& dataset,
                                            const BenchConfig& config) {
  Rng rng(config.seed + 997);
  EAFE_ASSIGN_OR_RETURN(data::TrainTestDatasets split,
                        data::TrainTestSplit(dataset, 0.3, &rng));
  ml::TabularResNet::Options resnet_options;
  resnet_options.task = dataset.task;
  resnet_options.epochs = config.full ? 60 : 30;
  resnet_options.seed = config.seed;
  ml::TabularResNet resnet(resnet_options);
  EAFE_RETURN_NOT_OK(
      resnet.Fit(split.train.features, split.train.labels));
  ResNetSplit out;
  out.train.task = dataset.task;
  out.train.name = dataset.name + "+resnet";
  EAFE_ASSIGN_OR_RETURN(out.train.features,
                        resnet.ExtractRepresentation(split.train.features));
  out.train.labels = split.train.labels;
  out.test.task = dataset.task;
  out.test.name = out.train.name;
  EAFE_ASSIGN_OR_RETURN(out.test.features,
                        resnet.ExtractRepresentation(split.test.features));
  out.test.labels = split.test.labels;
  return out;
}

Result<double> ScoreRfOnSplit(const ResNetSplit& split,
                              const BenchConfig& config) {
  ml::RandomForest::Options rf_options;
  rf_options.task = split.train.task;
  rf_options.num_trees = config.rf_trees;
  rf_options.max_depth = config.rf_max_depth;
  rf_options.seed = config.seed;
  ml::RandomForest forest(rf_options);
  EAFE_RETURN_NOT_OK(forest.Fit(split.train.features, split.train.labels));
  EAFE_ASSIGN_OR_RETURN(std::vector<double> predicted,
                        forest.Predict(split.test.features));
  return ml::TaskScore(split.train.task, split.test.labels, predicted);
}

}  // namespace

Result<double> ScoreResNetRf(const data::Dataset& dataset,
                             const BenchConfig& config) {
  EAFE_ASSIGN_OR_RETURN(ResNetSplit split,
                        FitResNetRepresentation(dataset, config));
  return ScoreRfOnSplit(split, config);
}

Result<double> ScoreDlThenFe(const data::Dataset& dataset,
                             const BenchConfig& config) {
  EAFE_ASSIGN_OR_RETURN(ResNetSplit split,
                        FitResNetRepresentation(dataset, config));
  // Feature selection on the learned representation: keep the top half of
  // train-split columns by RF impurity importance.
  ml::RandomForest::Options rf_options;
  rf_options.task = dataset.task;
  rf_options.num_trees = config.rf_trees;
  rf_options.max_depth = config.rf_max_depth;
  rf_options.seed = config.seed;
  ml::RandomForest forest(rf_options);
  EAFE_RETURN_NOT_OK(forest.Fit(split.train.features, split.train.labels));
  const std::vector<double> importances = forest.FeatureImportances();
  std::vector<size_t> order(importances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return importances[a] > importances[b];
  });
  order.resize(std::max<size_t>(order.size() / 2, 1));
  split.train.features = split.train.features.SelectColumns(order);
  split.test.features = split.test.features.SelectColumns(order);
  return ScoreRfOnSplit(split, config);
}

Result<double> ScoreFeThenDl(const data::Dataset& engineered,
                             const BenchConfig& config) {
  return ScoreWithModel(engineered, ml::ModelKind::kResNet, config);
}

}  // namespace eafe::bench
