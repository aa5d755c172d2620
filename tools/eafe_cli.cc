// eafe — command-line interface to the library, for users who want the
// paper's pipeline on their own CSV files without writing C++:
//
//   eafe pretrain --out model.eafe [--public 10] [--scheme ccws]
//       Pre-train an FPE model (synthetic public collection) and save it
//       as a binary model container.
//
//   eafe search --data train.csv --label target --task classification
//               [--model model.eafe] [--method eafe|nfs|random]
//               [--downstream rf|gbdt|...] [--epochs 10]
//               [--out engineered.csv]
//       Run AFE on a CSV dataset; optionally write the engineered table.
//
//   eafe evaluate --data train.csv --label target --task classification
//                 [--downstream rf|gbdt|svm|nb_gp|mlp|resnet]
//       Cross-validated downstream score of a dataset as-is.
//
//   eafe describe --data train.csv --label target --task classification
//       Shape, per-column statistics, and RF feature importances.
//
//   eafe save-model --data train.csv --label target --task classification
//                   --out model.eafe [--model-type rf|gbdt]
//       Train a forest/booster and save it to a model container.
//
//   eafe predict --model-file model.eafe --data test.csv
//                [--label target] [--proba] [--out predictions.csv]
//       Batch inference from a saved container via the flat engine.

#include <cstdio>
#include <string>

#include "core/flags.h"
#include "core/table_printer.h"
#include "runtime/metrics.h"
#include "simd/simd.h"
#include "data/csv.h"
#include "data/meta_features.h"
#include "eafe.h"
#include "ml/feature_selection.h"
#include "runtime/thread_pool.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"

namespace eafe::cli {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void ApplyThreads(const FlagParser& flags) {
  runtime::SetGlobalThreads(static_cast<size_t>(flags.GetInt("threads")));
}

/// --metrics: installs a recording gateway for the command's lifetime and
/// dumps the Prometheus text exposition (plus the per-kernel SIMD
/// dispatch counts) to stderr at scope exit. Construct before any
/// instrumented component (pools, caches, services) — they capture their
/// instruments at construction.
class MetricsDump {
 public:
  explicit MetricsDump(bool enabled) : enabled_(enabled) {
    if (enabled_) runtime::SetGlobalMetrics(&gateway_);
  }
  ~MetricsDump() {
    if (!enabled_) return;
    simd::PublishDispatchCounts(&gateway_);
    std::fprintf(stderr, "%s", gateway_.TextExposition().c_str());
    runtime::SetGlobalMetrics(nullptr);
  }
  MetricsDump(const MetricsDump&) = delete;
  MetricsDump& operator=(const MetricsDump&) = delete;

 private:
  bool enabled_;
  runtime::TextMetricGateway gateway_;
};

Result<data::Dataset> LoadDataset(const FlagParser& flags) {
  const std::string path = flags.GetString("data");
  const std::string label = flags.GetString("label");
  if (path.empty() || label.empty()) {
    return Status::InvalidArgument("--data and --label are required");
  }
  const std::string task_name = flags.GetString("task");
  data::TaskType task;
  if (task_name == "classification") {
    task = data::TaskType::kClassification;
  } else if (task_name == "regression") {
    task = data::TaskType::kRegression;
  } else {
    return Status::InvalidArgument(
        "--task must be classification or regression");
  }
  return data::ReadCsvDataset(path, label, task);
}

int Pretrain(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("out", "fpe_model.eafe", "output model path")
      .AddInt("public", 10, "number of synthetic public datasets", 0)
      .AddString("scheme", "", "fix one MinHash scheme (default: sweep)")
      .AddInt("dimension", 48, "signature dimension d", 1)
      .AddDouble("thre", 0.01, "label threshold")
      .AddInt("seed", 17, "random seed")
      .AddThreads().AddBool(
          "metrics", false, "dump runtime metrics to stderr at exit");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;
  if (!parsed.ok()) return Fail(parsed);
  ApplyThreads(flags);
  MetricsDump metrics(flags.GetBool("metrics"));

  afe::FpePretrainingOptions options;
  options.trainer.dimensions = {
      static_cast<size_t>(flags.GetInt("dimension"))};
  options.trainer.threshold = flags.GetDouble("thre");
  options.trainer.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  if (!flags.GetString("scheme").empty()) {
    auto scheme = hashing::MinHashSchemeFromString(flags.GetString("scheme"));
    if (!scheme.ok()) return Fail(scheme.status());
    options.trainer.schemes = {*scheme};
  }
  std::printf("pre-training FPE on %lld public datasets...\n",
              static_cast<long long>(flags.GetInt("public")));
  auto trained = afe::PretrainFpe(
      data::MakePublicCollection(
          static_cast<size_t>(flags.GetInt("public")), 141.0 / 239.0,
          options.trainer.seed + 1),
      options);
  if (!trained.ok()) return Fail(trained.status());
  std::printf("selected %s d=%zu recall=%.3f precision=%.3f\n",
              hashing::MinHashSchemeToString(trained->selected.scheme)
                  .c_str(),
              trained->selected.dimension, trained->selected.recall,
              trained->selected.precision);
  const Status saved =
      serve::SaveModel(trained->model, flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  std::printf("model written to %s\n", flags.GetString("out").c_str());
  return 0;
}

int Search(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("data", "", "input CSV")
      .AddString("label", "", "label column name")
      .AddString("task", "classification", "classification|regression")
      .AddString("model", "", "FPE model path (required for method eafe)")
      .AddString("method", "eafe", "eafe|nfs|random")
      .AddInt("epochs", 10, "training epochs", 0)
      .AddInt("max-features", 48, "RF-importance pre-selection cap", 0)
      .AddString("out", "", "write the engineered table to this CSV")
      .AddInt("seed", 17, "random seed")
      .AddString("downstream", "rf",
                 "downstream evaluator: "
                 "rf|tree|gbdt|logreg|svm|nb_gp|mlp|resnet")
      .AddThreads().AddBool(
          "metrics", false, "dump runtime metrics to stderr at exit");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;
  if (!parsed.ok()) return Fail(parsed);
  ApplyThreads(flags);
  MetricsDump metrics(flags.GetBool("metrics"));

  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());

  // The paper's wide-table protocol: importance pre-selection first.
  ml::PreselectOptions preselect;
  preselect.max_features =
      static_cast<size_t>(flags.GetInt("max-features"));
  auto narrowed = ml::PreselectFeatures(*dataset, preselect);
  if (!narrowed.ok()) return Fail(narrowed.status());
  if (narrowed->num_features() < dataset->num_features()) {
    std::printf("pre-selected %zu of %zu features by RF importance\n",
                narrowed->num_features(), dataset->num_features());
  }

  afe::SearchOptions search_options;
  search_options.epochs = static_cast<size_t>(flags.GetInt("epochs"));
  search_options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  auto downstream = ml::ModelKindFromString(flags.GetString("downstream"));
  if (!downstream.ok()) return Fail(downstream.status());
  search_options.evaluator.model = downstream.ValueOrDie();

  std::unique_ptr<afe::FeatureSearch> search;
  fpe::FpeModel model;
  const std::string method = flags.GetString("method");
  if (method == "eafe") {
    if (flags.GetString("model").empty()) {
      return Fail(Status::InvalidArgument(
          "--model is required for method eafe (run `eafe pretrain`)"));
    }
    auto loaded = serve::LoadModel(flags.GetString("model"));
    if (!loaded.ok()) return Fail(loaded.status());
    if (loaded->kind != serve::ModelKind::kFpe || !loaded->fpe) {
      return Fail(Status::InvalidArgument(
          "--model must be an FPE model (run `eafe pretrain`)"));
    }
    model = std::move(*loaded->fpe);
    afe::EafeSearch::Options options;
    options.search = search_options;
    options.fpe_model = &model;
    options.stage1_epochs = search_options.epochs;
    search = std::make_unique<afe::EafeSearch>(options);
  } else if (method == "nfs") {
    search = std::make_unique<afe::NfsSearch>(search_options);
  } else if (method == "random") {
    search = std::make_unique<afe::RandomSearch>(search_options);
  } else {
    return Fail(Status::InvalidArgument("unknown method: " + method));
  }

  std::printf("running %s for %zu epochs...\n", search->name().c_str(),
              search_options.epochs);
  auto result = search->Run(*narrowed);
  if (!result.ok()) return Fail(result.status());
  std::printf("score %.4f -> %.4f | generated %zu, evaluated %zu, kept "
              "%zu | %.1fs\n",
              result->base_score, result->best_score,
              result->features_generated, result->features_evaluated,
              result->features_kept, result->total_seconds);
  for (const std::string& name :
       result->best_dataset.features.ColumnNames()) {
    if (name.find('(') != std::string::npos) {
      std::printf("  + %s\n", name.c_str());
    }
  }

  if (!flags.GetString("out").empty()) {
    data::DataFrame table = result->best_dataset.features;
    const Status added = table.AddColumn(
        data::Column(flags.GetString("label"),
                     result->best_dataset.labels));
    if (!added.ok()) return Fail(added);
    const Status written = data::WriteCsv(table, flags.GetString("out"));
    if (!written.ok()) return Fail(written);
    std::printf("engineered table written to %s\n",
                flags.GetString("out").c_str());
  }
  return 0;
}

int Evaluate(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("data", "", "input CSV")
      .AddString("label", "", "label column name")
      .AddString("task", "classification", "classification|regression")
      .AddString("downstream", "rf",
                 "rf|tree|gbdt|logreg|svm|nb_gp|mlp|resnet")
      .AddInt("folds", 5, "cross-validation folds", 0)
      .AddInt("seed", 17, "random seed")
      .AddThreads().AddBool(
          "metrics", false, "dump runtime metrics to stderr at exit");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;
  if (!parsed.ok()) return Fail(parsed);
  ApplyThreads(flags);
  MetricsDump metrics(flags.GetBool("metrics"));

  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto kind = ml::ModelKindFromString(flags.GetString("downstream"));
  if (!kind.ok()) return Fail(kind.status());

  ml::EvaluatorOptions options;
  options.model = *kind;
  options.cv_folds = static_cast<size_t>(flags.GetInt("folds"));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  ml::TaskEvaluator evaluator(options);
  auto score = evaluator.Score(*dataset);
  if (!score.ok()) return Fail(score.status());
  std::printf("%s %zu-fold CV score (%s): %.4f\n",
              flags.GetString("downstream").c_str(), options.cv_folds,
              dataset->task == data::TaskType::kClassification
                  ? "weighted F1"
                  : "1-RAE",
              *score);
  return 0;
}

int Describe(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("data", "", "input CSV")
      .AddString("label", "", "label column name")
      .AddString("task", "classification", "classification|regression");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;
  if (!parsed.ok()) return Fail(parsed);

  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  std::printf("%zu rows x %zu features, %s\n", dataset->num_rows(),
              dataset->num_features(),
              data::TaskTypeToString(dataset->task).c_str());

  ml::RandomForest::Options rf;
  rf.task = dataset->task;
  ml::RandomForest forest(rf);
  std::vector<double> importances;
  if (forest.Fit(dataset->features, dataset->labels).ok()) {
    importances = forest.FeatureImportances();
  }

  TablePrinter table({"Column", "Mean", "StdDev", "Skew", "Unique%",
                      "RF importance"});
  for (size_t c = 0; c < dataset->num_features(); ++c) {
    const data::Column& col = dataset->features.column(c);
    auto meta = data::ComputeMetaFeatures(col.values());
    const double skew = meta.ok() ? (*meta)[2] : 0.0;
    const double unique = meta.ok() ? (*meta)[8] : 0.0;
    table.AddRow({col.name(), TablePrinter::Num(col.Mean()),
                  TablePrinter::Num(col.StdDev()),
                  TablePrinter::Num(skew),
                  TablePrinter::Num(100.0 * unique, 1),
                  c < importances.size()
                      ? TablePrinter::Num(importances[c])
                      : "n/a"});
  }
  table.Print();
  return 0;
}

int SaveModelCmd(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("data", "", "input CSV")
      .AddString("label", "", "label column name")
      .AddString("task", "classification", "classification|regression")
      .AddString("model-type", "rf", "model to train: rf|gbdt")
      .AddString("out", "model.eafe", "output container path")
      .AddInt("trees", 10, "forest trees / boosting rounds", 0)
      .AddInt("max-depth", 0, "tree depth cap (0: model default)")
      .AddInt("seed", 17, "random seed")
      .AddThreads().AddBool(
          "metrics", false, "dump runtime metrics to stderr at exit");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;
  if (!parsed.ok()) return Fail(parsed);
  ApplyThreads(flags);
  MetricsDump metrics(flags.GetBool("metrics"));

  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());

  const std::string model_type = flags.GetString("model-type");
  Status saved = Status::OK();
  size_t num_trees = 0;
  if (model_type == "rf") {
    ml::RandomForest::Options options;
    options.task = dataset->task;
    options.num_trees = static_cast<size_t>(flags.GetInt("trees"));
    if (flags.GetInt("max-depth") > 0) {
      options.max_depth = static_cast<size_t>(flags.GetInt("max-depth"));
    }
    options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    ml::RandomForest forest(options);
    const Status fitted = forest.Fit(dataset->features, dataset->labels);
    if (!fitted.ok()) return Fail(fitted);
    num_trees = forest.num_trees();
    saved = serve::SaveModel(forest, flags.GetString("out"));
  } else if (model_type == "gbdt") {
    ml::GradientBoostedTrees::Options options;
    options.task = dataset->task;
    options.rounds = static_cast<size_t>(flags.GetInt("trees"));
    if (flags.GetInt("max-depth") > 0) {
      options.max_depth = static_cast<size_t>(flags.GetInt("max-depth"));
    }
    options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    ml::GradientBoostedTrees booster(options);
    const Status fitted = booster.Fit(dataset->features, dataset->labels);
    if (!fitted.ok()) return Fail(fitted);
    num_trees = booster.num_trees();
    saved = serve::SaveModel(booster, flags.GetString("out"));
  } else {
    return Fail(
        Status::InvalidArgument("--model-type must be rf or gbdt"));
  }
  if (!saved.ok()) return Fail(saved);
  std::printf("%s with %zu trees on %zu rows x %zu features written to "
              "%s\n",
              model_type.c_str(), num_trees, dataset->num_rows(),
              dataset->num_features(), flags.GetString("out").c_str());
  return 0;
}

int Predict(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("model-file", "", "saved model container")
      .AddString("data", "", "input CSV")
      .AddString("label", "",
                 "drop this column before predicting (if present)")
      .AddBool("proba", false, "emit P(class == 1) instead of labels")
      .AddString("out", "", "write predictions to this CSV")
      .AddBool("metrics", false, "dump runtime metrics to stderr at exit");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;
  if (!parsed.ok()) return Fail(parsed);
  MetricsDump metrics(flags.GetBool("metrics"));
  if (flags.GetString("model-file").empty() ||
      flags.GetString("data").empty()) {
    return Fail(
        Status::InvalidArgument("--model-file and --data are required"));
  }

  auto loaded = serve::LoadModel(flags.GetString("model-file"));
  if (!loaded.ok()) return Fail(loaded.status());
  if (!loaded->tree) {
    return Fail(Status::InvalidArgument(
        "predict serves forest/gbdt containers; FPE models drive "
        "`eafe search --model`"));
  }
  auto predictor = serve::FlatPredictor::Create(std::move(*loaded->tree));
  if (!predictor.ok()) return Fail(predictor.status());

  auto frame = data::ReadCsv(flags.GetString("data"));
  if (!frame.ok()) return Fail(frame.status());
  if (!flags.GetString("label").empty()) {
    // Tolerate frames with or without the label column, so the training
    // CSV can be replayed through predict as-is.
    (void)frame->DropColumnByName(flags.GetString("label"));
  }

  auto predictions = flags.GetBool("proba")
                         ? predictor->PredictProba(*frame)
                         : predictor->Predict(*frame);
  if (!predictions.ok()) return Fail(predictions.status());

  if (!flags.GetString("out").empty()) {
    data::DataFrame table;
    const Status added = table.AddColumn(
        data::Column("prediction", std::move(*predictions)));
    if (!added.ok()) return Fail(added);
    const Status written = data::WriteCsv(table, flags.GetString("out"));
    if (!written.ok()) return Fail(written);
    std::printf("%zu predictions written to %s\n", table.num_rows(),
                flags.GetString("out").c_str());
    return 0;
  }
  for (const double p : *predictions) std::printf("%.17g\n", p);
  return 0;
}

int Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s <pretrain|search|evaluate|describe|save-model|"
               "predict> [flags]\n"
               "Run '%s <command> --help' for command flags.\n",
               program, program);
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  // Shift argv so FlagParser sees only the command's flags.
  if (command == "pretrain") return Pretrain(argc - 1, argv + 1);
  if (command == "search") return Search(argc - 1, argv + 1);
  if (command == "evaluate") return Evaluate(argc - 1, argv + 1);
  if (command == "describe") return Describe(argc - 1, argv + 1);
  if (command == "save-model") return SaveModelCmd(argc - 1, argv + 1);
  if (command == "predict") return Predict(argc - 1, argv + 1);
  return Usage(argv[0]);
}

}  // namespace
}  // namespace eafe::cli

int main(int argc, char** argv) { return eafe::cli::Main(argc, argv); }
