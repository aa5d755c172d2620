// eafe_e2e — end-to-end benchmark of the feature search and the model
// server, with a per-layer replay trace.
//
//   eafe_e2e --workload eafe_tall --seed 1 --seconds 10 --trace 0
//
// Every input is generated from --seed. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (and a
// Chrome trace-event file is written to
// <work-dir>/trace_<workload>_<seed>.json). The first line records the
// host. Exit code 1 means a correctness check failed.
//
// Workloads (see README.md for why each exists):
//   eafe_tall     E-AFE, classification, many rows: hashing/fpe heavy.
//   nfs_tall      NFS, regression, many rows: hashing/fpe bypassed, ml heavy.
//   eafe_wide     E-AFE, classification, many columns, short rows.
//   serve_ladder  predicts to an in-process EafeServer: a closed loop of
//                 1024-row requests, then 16-row saturation (traced runs:
//                 three single-row open-loop rates, then saturation).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "afe/eafe.h"
#include "afe/eval_service.h"
#include "afe/feature_space.h"
#include "afe/fpe_pretraining.h"
#include "afe/nfs.h"
#include "afe/search.h"
#include "core/flags.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "ml/evaluator.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "runtime/metric_names.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"
#include "serve/server/client.h"
#include "serve/server/protocol.h"
#include "serve/server/server.h"
#include "simd/simd.h"
#include "trace.h"

namespace eafe::e2e {
namespace {

namespace names = runtime::metric_names;

enum class Kind { kEafe, kNfs, kServe };

/// One workload: what runs and on what shape of data. Sizes are the
/// full-scale values; --scale=smoke shrinks them for smoke.py.
struct Workload {
  const char* name;
  Kind kind;
  data::TaskType task;
  size_t rows;
  size_t features;
  size_t epochs;         ///< Search epochs (stage 2 for E-AFE).
  size_t stage1_epochs;  ///< E-AFE FPE-only initialization epochs.
  /// Seed of the planted target structure. Fixed per workload so that
  /// --seed changes which rows are drawn, not how hard the task is.
  uint64_t structure_seed;
};

constexpr Workload kWorkloads[] = {
    {"eafe_tall", Kind::kEafe, data::TaskType::kClassification, 8000, 8, 3, 3,
     11},
    {"nfs_tall", Kind::kNfs, data::TaskType::kRegression, 8000, 8, 3, 0, 12},
    {"eafe_wide", Kind::kEafe, data::TaskType::kClassification, 1500, 32, 2,
     2, 13},
    {"serve_ladder", Kind::kServe, data::TaskType::kClassification, 20000, 8,
     0, 0, 14},
};

/// Single-row open-loop rates (requests/s), run in the traced run and
/// reported as per-layer diagnostics, not gated: on a 4-vCPU VM their
/// latency is set by thread wake-ups and is bimodal per process (p50 about
/// 20 µs in some runs, 40-100 µs in others).
constexpr double kOpenLoopRates[] = {2000.0, 8000.0, 32000.0};
constexpr double kSloP99Ms = 1.0;
/// Share of a traced serve run's --seconds the open-loop steps get; the
/// untraced and traced saturation steps split the rest.
constexpr double kOpenLoopShare = 0.45;
/// Share of an untraced serve run's --seconds the closed-loop step gets;
/// saturation gets the rest. In the closed loop one caller sends a request
/// and waits for its reply, so its latency is the server's round trip at
/// light load, not a queue the harness built (under saturation latency is
/// the window over the throughput).
constexpr double kClosedLoopShare = 0.3;
/// Rows per closed-loop request. Light-load round trips are set by thread
/// wake-ups, which on a 4-vCPU KVM guest are bimodal per process: with 16
/// rows the p50 read 27 µs in one run of ten and 46-60 µs in the rest
/// (quartile spread 0.18). With 1024 rows the walk, gather and codec carry
/// most of the time and the spread was 0.06 on a quiet host.
constexpr size_t kClosedLoopRows = 1024;
/// Rows per request in the saturation step. With single-row requests the
/// saturated rate is set by cross-thread wake-ups and moved 10-35% from
/// run to run on a 4-vCPU KVM guest; 16 rows let the walk and codec
/// dominate (2-6%).
constexpr size_t kSaturationRows = 16;
/// The gated saturation numbers come from the best 10% of 100 ms windows:
/// on a shared VM other tenants slow the guest in bursts of 0.5-2 s, and
/// the rate between bursts is the server's capacity.
constexpr double kWindowSeconds = 0.1;
constexpr double kBestWindowQuantile = 0.9;
/// Caps the saturation step's request ids; far above any reachable rate.
constexpr double kMaxSaturationQps = 1e9;
constexpr int kStepGraceSeconds = 10;
constexpr size_t kConnections = 2;
/// Requests in flight per connection. Bounded so overload shows up as
/// lateness, not as shed replies: 2 x 128 stays under the server's
/// 512-deep admission queue, and 2 x 128 x kSaturationRows rows fill its
/// 4096-row batch budget.
constexpr size_t kWindow = 128;
constexpr size_t kHeldoutRows = 4096;
/// Seed of the program's own configuration: the FPE pretraining corpus,
/// the search policy, CV folds and forest bootstraps. --seed draws the
/// workload's inputs only, so runs at different seeds measure the same
/// configuration on different rows.
constexpr uint64_t kConfigSeed = 7;
constexpr size_t kMinSetups = 3;
constexpr double kSetupBudgetSeconds = 1.0;
/// Datasets per search run; each pass searches all of them, so one run
/// averages over several row draws instead of riding on one.
constexpr size_t kSearchDraws = 3;
constexpr size_t kMinPasses = 3;
constexpr size_t kReplayCandidates = 64;
constexpr double kFpeThreshold = 0.55;
/// The replay's layer spans must cover all but this share of its time.
constexpr double kMaxUnattributed = 0.05;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  size_t threads = 1;
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the last stdout line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
    correct = false;
  }
  std::string Json() const {
    std::string out = StrFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i > 0 ? ", " : "", metrics[i].name.c_str(),
                       metrics[i].value, metrics[i].unit.c_str());
    }
    return out + "}}";
  }
};

/// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Set-up is repeated and its median reported: at least kMinSetups times,
/// then until kSetupBudgetSeconds are used, so a cheap set-up (a few ms)
/// gets hundreds of samples. Traced and smoke runs set up once.
bool MoreSetups(const Options& options, size_t done, const Stopwatch& total) {
  if (options.trace || options.smoke) return done < 1;
  return done < kMinSetups || total.ElapsedSeconds() < kSetupBudgetSeconds;
}

// ---------------------------------------------------------------------------
// Inputs.

size_t Rows(const Options& options) {
  return options.smoke ? options.workload->rows / 10 : options.workload->rows;
}

struct Inputs {
  data::Dataset train;    ///< The searched dataset / the forest's rows.
  data::Dataset heldout;  ///< Serve request rows (serve_ladder only).
};

/// The run's `draws` datasets, each a seeded subset of one pool with a
/// fixed planted structure: --seed picks and orders the rows.
Result<std::vector<Inputs>> MakeInputs(const Options& options, size_t draws) {
  const Workload& workload = *options.workload;
  const size_t rows = Rows(options);
  const size_t heldout = workload.kind == Kind::kServe
                             ? (options.smoke ? kHeldoutRows / 8 : kHeldoutRows)
                             : 0;
  data::SyntheticSpec spec;
  spec.name = workload.name;
  spec.task = workload.task;
  spec.num_samples = rows + heldout + rows / 2;
  spec.num_features = workload.features;
  spec.seed = workload.structure_seed;
  EAFE_ASSIGN_OR_RETURN(data::Dataset pool, data::MakeSynthetic(spec));
  Rng seeder(options.seed);
  std::vector<Inputs> all(draws);
  for (Inputs& inputs : all) {
    Rng rng(seeder.Next());
    const std::vector<size_t> order = rng.Permutation(pool.num_rows());
    inputs.train = pool.SelectRows(
        std::vector<size_t>(order.begin(), order.begin() + rows));
    inputs.train.name = workload.name;
    if (heldout > 0) {
      inputs.heldout = pool.SelectRows(std::vector<size_t>(
          order.begin() + rows, order.begin() + rows + heldout));
    }
  }
  return all;
}

ml::EvaluatorOptions EvaluatorFor() {
  ml::EvaluatorOptions evaluator;
  evaluator.model = ml::ModelKind::kRandomForest;
  evaluator.cv_folds = 3;
  evaluator.rf_trees = 8;
  evaluator.rf_max_depth = 6;
  evaluator.seed = kConfigSeed;
  return evaluator;
}

/// The paper's offline step: pretrain the FPE model on a public corpus.
Result<fpe::FpeModel> PretrainFpeModel(const Options& options) {
  afe::FpePretrainingOptions pretraining;
  pretraining.trainer.dimensions = {48};
  pretraining.trainer.schemes = {hashing::MinHashScheme::kCcws};
  pretraining.trainer.evaluator = EvaluatorFor();
  pretraining.generated_per_dataset = options.smoke ? 4 : 16;
  pretraining.seed = kConfigSeed + 31;
  const std::vector<data::Dataset> corpus = data::MakePublicCollection(
      options.smoke ? 3 : 8, 141.0 / 239.0, kConfigSeed + 99);
  EAFE_ASSIGN_OR_RETURN(fpe::FpeTrainingResult result,
                        afe::PretrainFpe(corpus, pretraining));
  return std::move(result.model);
}

// ---------------------------------------------------------------------------
// Search workloads.

struct SearchSetup {
  std::vector<data::Dataset> datasets;  ///< One per draw.
  std::unique_ptr<fpe::FpeModel> fpe;   ///< Null for NFS.
};

Result<SearchSetup> MakeSearchSetup(const Options& options) {
  SearchSetup setup;
  EAFE_ASSIGN_OR_RETURN(std::vector<Inputs> draws,
                        MakeInputs(options, options.smoke ? 2 : kSearchDraws));
  for (Inputs& inputs : draws) {
    setup.datasets.push_back(std::move(inputs.train));
  }
  if (options.workload->kind == Kind::kEafe) {
    EAFE_ASSIGN_OR_RETURN(fpe::FpeModel model, PretrainFpeModel(options));
    setup.fpe = std::make_unique<fpe::FpeModel>(std::move(model));
  }
  return setup;
}

Result<afe::SearchResult> RunSearch(const Options& options,
                                    const SearchSetup& setup,
                                    const data::Dataset& dataset) {
  const Workload& workload = *options.workload;
  afe::SearchOptions search;
  search.epochs = options.smoke ? 1 : workload.epochs;
  search.steps_per_agent = 3;
  search.evaluator = EvaluatorFor();
  search.seed = kConfigSeed + 101;
  search.pipeline = afe::PipelineMode::kAsync;
  if (workload.kind == Kind::kNfs) return afe::NfsSearch(search).Run(dataset);
  afe::EafeSearch::Options eafe;
  eafe.search = search;
  eafe.fpe_model = setup.fpe.get();
  eafe.stage1_epochs = options.smoke ? 1 : workload.stage1_epochs;
  eafe.fpe_accept_threshold = kFpeThreshold;
  return afe::EafeSearch(eafe).Run(dataset);
}

/// The search equivalence contract (DESIGN.md §12): every result-bearing
/// field matches bit for bit. eval_cache_hits and timings are excluded —
/// concurrent same-signature evaluations may both miss the cache.
bool BitIdentical(const afe::SearchResult& a, const afe::SearchResult& b) {
  if (a.base_score != b.base_score || a.best_score != b.best_score ||
      a.search_score != b.search_score ||
      a.downstream_evaluations != b.downstream_evaluations ||
      a.features_generated != b.features_generated ||
      a.features_evaluated != b.features_evaluated ||
      a.features_kept != b.features_kept ||
      a.curve.size() != b.curve.size() ||
      a.best_dataset.num_features() != b.best_dataset.num_features()) {
    return false;
  }
  for (size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].best_score != b.curve[i].best_score ||
        a.curve[i].cumulative_evaluations !=
            b.curve[i].cumulative_evaluations) {
      return false;
    }
  }
  for (size_t c = 0; c < a.best_dataset.num_features(); ++c) {
    const data::Column& ca = a.best_dataset.features.columns()[c];
    const data::Column& cb = b.best_dataset.features.columns()[c];
    if (ca.name() != cb.name() || ca.values() != cb.values()) return false;
  }
  return true;
}

/// One pass: a search of every draw, each checked against that draw's
/// warm-up result. Returns the pass's wall time, or nothing when a search
/// failed or differed.
std::optional<double> TimedPass(const Options& options,
                                const SearchSetup& setup,
                                const std::vector<afe::SearchResult>& warm,
                                Report* report) {
  double seconds = 0.0;
  for (size_t d = 0; d < setup.datasets.size(); ++d) {
    ++report->attempted;
    Stopwatch watch;
    auto result = RunSearch(options, setup, setup.datasets[d]);
    seconds += watch.ElapsedSeconds();
    if (!result.ok()) {
      ++report->failed;
      report->Fail("search: " + result.status().ToString());
      return std::nullopt;
    }
    if (!BitIdentical(*result, warm[d])) {
      ++report->failed;
      report->Fail("search repetition is not bit-identical to the warm-up");
      return std::nullopt;
    }
  }
  return seconds;
}

/// Timed passes until `seconds` have passed (at least kMinPasses; one at
/// smoke scale).
std::vector<double> TimePasses(const Options& options,
                               const SearchSetup& setup,
                               const std::vector<afe::SearchResult>& warm,
                               Report* report) {
  std::vector<double> passes;
  Stopwatch budget;
  while (passes.size() < (options.smoke ? 1 : kMinPasses) ||
         budget.ElapsedSeconds() < options.seconds) {
    auto pass = TimedPass(options, setup, warm, report);
    if (!pass.has_value()) break;
    passes.push_back(*pass);
  }
  return passes;
}

// ---------------------------------------------------------------------------
// Per-layer replay: the benchmark drives each module's public calls itself
// and records a span around each, so no span lives inside src/.

struct ReplayOutcome {
  size_t candidates = 0;  ///< Candidates that reached cross-validation.
  size_t mismatches = 0;  ///< Replayed CV scores != TaskEvaluator::Score.
};

/// CrossValidateScore re-enacted call by call (same folds, same binner,
/// same fold order) so each layer gets its own span. Returns the mean
/// score and leaves the last fold's forest in `last_model`.
Result<double> ReplayCrossValidation(const ml::TaskEvaluator& evaluator,
                                     const data::Dataset& dataset,
                                     SpanRecorder* recorder, uint64_t parent,
                                     uint64_t item,
                                     std::unique_ptr<ml::Model>* last_model) {
  ScopedSpan cv(recorder, "ml.cv", parent, item);
  const ml::EvaluatorOptions& options = evaluator.options();
  Rng rng(options.seed);
  bool stratified = dataset.task == data::TaskType::kClassification;
  if (stratified) {
    std::map<int, size_t> counts;
    for (double label : dataset.labels) ++counts[static_cast<int>(label)];
    for (const auto& [label, count] : counts) {
      (void)label;
      stratified = stratified && count >= options.cv_folds;
    }
  }
  std::vector<data::Fold> folds;
  if (stratified) {
    EAFE_ASSIGN_OR_RETURN(folds, data::StratifiedKFoldIndices(
                                     dataset.labels, options.cv_folds, &rng));
  } else {
    EAFE_ASSIGN_OR_RETURN(
        folds, data::KFoldIndices(dataset.num_rows(), options.cv_folds, &rng));
  }
  std::shared_ptr<const ml::FeatureBinner> binner;
  {
    ScopedSpan bin(recorder, "ml.bin", cv.id(), item);
    std::unique_ptr<ml::Model> probe = evaluator.CreateModel(dataset.task);
    const auto* shared =
        dynamic_cast<const ml::SharedBinnerModel*>(probe.get());
    if (shared == nullptr) {
      return Status::FailedPrecondition("downstream model cannot share bins");
    }
    EAFE_ASSIGN_OR_RETURN(binner, shared->BinFrame(dataset.features));
  }
  double sum = 0.0;
  for (const data::Fold& fold : folds) {
    std::unique_ptr<ml::Model> model = evaluator.CreateModel(dataset.task);
    auto* shared = dynamic_cast<ml::SharedBinnerModel*>(model.get());
    {
      ScopedSpan fit(recorder, "ml.fit", cv.id(), item);
      EAFE_RETURN_NOT_OK(shared->FitBinned(binner, dataset.labels, fold.train));
    }
    std::vector<double> predicted;
    {
      ScopedSpan predict(recorder, "ml.predict_heldout", cv.id(), item);
      EAFE_ASSIGN_OR_RETURN(predicted, shared->PredictBinnedRows(fold.test));
    }
    std::vector<double> truth;
    truth.reserve(fold.test.size());
    for (size_t row : fold.test) truth.push_back(dataset.labels[row]);
    sum += ml::TaskScore(dataset.task, truth, predicted);
    *last_model = std::move(model);
  }
  return sum / static_cast<double>(folds.size());
}

/// Builds a frame of `rows` consecutive rows (wrapping) of `source`.
data::DataFrame RowBlock(const data::DataFrame& source, size_t first,
                         size_t rows) {
  std::vector<size_t> ids(rows);
  for (size_t i = 0; i < rows; ++i) ids[i] = (first + i) % source.num_rows();
  return source.SelectRows(ids);
}

/// Replays seeded candidates through the workload's own per-candidate
/// call sequence under "replay.candidate" roots: generate, then (E-AFE
/// only) the FPE verdict at the search's threshold, then materialize,
/// signature and cross-validation. A "replay.probe" root then times the
/// calls that sequence does not make on its own: SampleCompressor::Compress
/// (PredictProbability compresses internally), PredictProbability on the
/// workloads whose search has no FPE filter, and the serve layer
/// (flatten, batch walks, codec) on the last fold's forest.
Result<ReplayOutcome> Replay(const Options& options,
                             const data::Dataset& dataset,
                             const fpe::FpeModel& fpe,
                             SpanRecorder* recorder) {
  const bool gated = options.workload->kind == Kind::kEafe;
  const ml::TaskEvaluator evaluator(EvaluatorFor());
  const afe::FeatureSpace space(dataset, afe::FeatureSpace::Options());
  Rng rng(options.seed + 4242);
  ReplayOutcome outcome;
  std::unique_ptr<ml::Model> fold_model;
  /// The latest candidate table to reach CV; the last fold's forest in
  /// `fold_model` was fitted on it.
  std::optional<data::Dataset> evaluated;
  std::vector<std::vector<double>> columns;
  const size_t min_evaluated = options.smoke ? 2 : 8;
  const size_t wanted = options.smoke ? kReplayCandidates / 4
                                      : kReplayCandidates;
  for (uint64_t item = 1; item <= 16 * wanted &&
                          (columns.size() < wanted ||
                           outcome.candidates < min_evaluated);
       ++item) {
    const size_t group = static_cast<size_t>(item) % space.num_groups();
    const afe::Operator op = afe::AllOperators()[rng.UniformInt(
        static_cast<uint64_t>(afe::kNumOperators))];
    double replayed = 0.0;
    bool passed = false;
    std::optional<afe::SpaceFeature> candidate;
    {
      ScopedSpan root(recorder, "replay.candidate", 0, item);
      {
        ScopedSpan span(recorder, "afe.generate", root.id(), item);
        auto generated =
            space.GenerateCandidate(space.MakeAction(group, op, &rng));
        if (generated.ok()) candidate = std::move(generated).ValueOrDie();
      }
      passed = candidate.has_value() && !gated;
      if (candidate.has_value() && gated) {
        ScopedSpan span(recorder, "fpe.predict", root.id(), item);
        EAFE_ASSIGN_OR_RETURN(
            const double probability,
            fpe.PredictProbability(candidate->column.values()));
        passed = probability >= kFpeThreshold;
      }
      if (passed) {
        {
          ScopedSpan span(recorder, "afe.materialize", root.id(), item);
          EAFE_ASSIGN_OR_RETURN(evaluated,
                                afe::BuildCandidateDataset(space, *candidate));
        }
        {
          ScopedSpan span(recorder, "afe.signature", root.id(), item);
          (void)afe::EvaluationSignature(*evaluated, evaluator.options());
        }
        EAFE_ASSIGN_OR_RETURN(replayed, ReplayCrossValidation(
                                            evaluator, *evaluated, recorder,
                                            root.id(), item, &fold_model));
      }
    }
    if (!candidate.has_value()) continue;
    if (columns.size() < wanted) {
      columns.push_back(candidate->column.values());
    }
    if (!passed) continue;
    // Checked outside the replay span: the reference call is not replayed
    // work.
    ++outcome.candidates;
    EAFE_ASSIGN_OR_RETURN(const double scored, evaluator.Score(*evaluated));
    if (std::memcmp(&scored, &replayed, sizeof(double)) != 0) {
      ++outcome.mismatches;
    }
  }
  const auto* forest = dynamic_cast<const ml::RandomForest*>(fold_model.get());
  if (forest == nullptr) {
    return Status::FailedPrecondition("replay evaluated no candidate");
  }

  // Probe inputs are built before the probe root opens so that the root
  // holds nothing but timed calls.
  const data::DataFrame& frame = evaluated->features;
  std::vector<data::DataFrame> blocks;
  for (const size_t rows : {size_t{1}, size_t{16}, size_t{256}}) {
    blocks.push_back(RowBlock(frame, rows * 7, rows));
  }
  std::vector<double> row_values;
  frame.CopyRow(0, &row_values);
  const uint32_t cols = static_cast<uint32_t>(frame.num_columns());
  const char* walk_names[] = {"serve.walk_b1", "serve.walk_b16",
                              "serve.walk_b256"};

  ScopedSpan root(recorder, "replay.probe", 0, 0);
  for (size_t i = 0; i < columns.size(); ++i) {
    {
      ScopedSpan span(recorder, "hashing.compress", root.id(), i + 1);
      EAFE_RETURN_NOT_OK(fpe.compressor().Compress(columns[i]).status());
    }
    if (!gated) {
      ScopedSpan span(recorder, "fpe.predict", root.id(), i + 1);
      EAFE_RETURN_NOT_OK(fpe.PredictProbability(columns[i]).status());
    }
  }
  std::optional<serve::FlatPredictor> predictor;
  {
    ScopedSpan span(recorder, "serve.flatten", root.id());
    EAFE_ASSIGN_OR_RETURN(const std::string bytes,
                          serve::SerializeForest(*forest));
    EAFE_ASSIGN_OR_RETURN(serve::LoadedModel loaded,
                          serve::DeserializeModel(bytes));
    EAFE_ASSIGN_OR_RETURN(
        predictor, serve::FlatPredictor::Create(std::move(*loaded.tree)));
  }
  for (uint64_t i = 1; i <= wanted; ++i) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      ScopedSpan span(recorder, walk_names[b], root.id(), i);
      EAFE_RETURN_NOT_OK(predictor->Predict(blocks[b]).status());
    }
    ScopedSpan span(recorder, "serve.codec", root.id(), i);
    const std::string frame_bytes = serve::server::EncodePredictRequest(
        i, "forest", false, 1, cols, row_values);
    EAFE_ASSIGN_OR_RETURN(
        const auto peeled,
        serve::server::PeelFrame(frame_bytes,
                                 serve::server::kDefaultMaxFrameBytes));
    if (!peeled.has_value()) return Status::Internal("codec lost a frame");
    EAFE_RETURN_NOT_OK(serve::server::ParseMessage(peeled->payload).status());
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Program counters from a recording gateway around one traced operation.

constexpr simd::Kernel kTrackedKernels[] = {
    simd::Kernel::kCwsArgmin,   simd::Kernel::kClassCounts,
    simd::Kernel::kTriples,     simd::Kernel::kSubtract,
    simd::Kernel::kSplitScan,   simd::Kernel::kWalk,
};

struct CounterSnapshot {
  std::map<std::string, double> values;
  std::vector<uint64_t> dispatches;
};

const char* const kCounterNames[] = {
    names::kEvalRequestsTotal, names::kEvalCacheHitsTotal,
    names::kEvalEvaluationsTotal, names::kPoolTasksTotal};
const char* const kStallStages[] = {"filter", "eval"};
const char* const kStallSides[] = {"push", "pop"};

std::string StallName(const char* stage, const char* side) {
  return StrFormat("%s_%s_queue_%s_stall_seconds", names::kPipelinePrefix,
                   stage, side);
}

CounterSnapshot Snapshot(runtime::MetricGateway* gateway) {
  CounterSnapshot snapshot;
  for (const char* name : kCounterNames) {
    snapshot.values[name] =
        static_cast<double>(gateway->Counter(name, "")->Value());
  }
  for (const char* stage : kStallStages) {
    for (const char* side : kStallSides) {
      const std::string name = StallName(stage, side);
      snapshot.values[name] = gateway->Histogram(name, "", {})->Sum();
    }
  }
  for (const std::string name :
       {names::kServerBatchRows, names::kServerRequestSeconds}) {
    auto* histogram = gateway->Histogram(name, "", {});
    snapshot.values[name + "_sum"] = histogram->Sum();
    snapshot.values[name + "_count"] =
        static_cast<double>(histogram->Count());
  }
  // Summed over tiers: some kernels (regression squares) always run the
  // scalar tier, whatever the active level.
  for (const simd::Kernel kernel : kTrackedKernels) {
    snapshot.dispatches.push_back(
        simd::DispatchCount(kernel, simd::Level::kScalar) +
        simd::DispatchCount(kernel, simd::Level::kAvx2));
  }
  return snapshot;
}

/// Installs `gateway` process-wide and rebuilds the global pool, whose
/// instruments are captured at construction.
void InstallGateway(runtime::MetricGateway* gateway, size_t threads) {
  runtime::SetGlobalMetrics(gateway);
  runtime::SetGlobalThreads(1);
  (void)runtime::GlobalPool();
  runtime::SetGlobalThreads(threads);
  (void)runtime::GlobalPool();
}

void AddCounterMetrics(const CounterSnapshot& before,
                       const CounterSnapshot& after, double wall_seconds,
                       Report* report) {
  auto delta = [&](const std::string& name) {
    return after.values.at(name) - before.values.at(name);
  };
  report->Add("runtime.eval_cache_hit_frac",
              Ratio(delta(names::kEvalCacheHitsTotal),
                    delta(names::kEvalRequestsTotal)),
              "frac");
  report->Add("runtime.eval_fits", delta(names::kEvalEvaluationsTotal),
              "count");
  report->Add("runtime.pool_tasks", delta(names::kPoolTasksTotal), "count");
  for (const char* stage : kStallStages) {
    for (const char* side : kStallSides) {
      report->Add(StrFormat("runtime.%s_%s_stall", stage, side),
                  Ratio(delta(StallName(stage, side)), wall_seconds),
                  "ratio");
    }
  }
  auto mean = [&](const std::string& histogram) {
    return Ratio(delta(histogram + "_sum"), delta(histogram + "_count"));
  };
  report->Add("serve.batch_rows_mean", mean(names::kServerBatchRows), "rows");
  // Admission to reply encode: under saturation mostly queue wait.
  report->Add("serve.server_ms_mean",
              mean(names::kServerRequestSeconds) * 1e3, "ms");
  for (size_t k = 0; k < std::size(kTrackedKernels); ++k) {
    report->Add(
        StrFormat("simd.%s", simd::KernelName(kTrackedKernels[k])),
        static_cast<double>(after.dispatches[k] - before.dispatches[k]),
        "count");
  }
}

/// Per-call medians and layer shares from the replay spans.
void AddReplayMetrics(const std::vector<Span>& spans, Report* report) {
  const std::pair<const char*, const char*> calls[] = {
      {"afe.generate_us", "afe.generate"},
      {"hashing.compress_us", "hashing.compress"},
      {"fpe.predict_us", "fpe.predict"},
      {"afe.materialize_us", "afe.materialize"},
      {"afe.signature_us", "afe.signature"},
      {"ml.bin_us", "ml.bin"},
      {"ml.fit_us", "ml.fit"},
      {"ml.predict_heldout_us", "ml.predict_heldout"},
      {"ml.cv_us", "ml.cv"},
      {"serve.walk_us_b1", "serve.walk_b1"},
      {"serve.walk_us_b16", "serve.walk_b16"},
      {"serve.walk_us_b256", "serve.walk_b256"},
      {"serve.codec_us", "serve.codec"},
  };
  for (const auto& [metric, span] : calls) {
    report->Add(metric, MedianDurationUs(spans, span), "us");
  }
  // Shares and unattributed time cover the per-candidate path only; the
  // probe root times calls that path does not make.
  const std::vector<Span> path = SpansUnder(spans, "replay.candidate");
  double wall_us = 0.0;
  for (const Span& span : path) {
    if (span.parent == 0) wall_us += span.duration_us();
  }
  const std::map<std::string, double> busy = LayerBusySeconds(path);
  for (const char* layer : {"afe", "fpe", "ml"}) {
    const auto it = busy.find(layer);
    report->Add(StrFormat("%s.share", layer),
                Ratio(it != busy.end() ? it->second * 1e6 : 0.0, wall_us),
                "frac");
  }
  const double unattributed = UnattributedFraction(path);
  report->Add("trace.unattributed_frac", unattributed, "frac");
  if (unattributed > kMaxUnattributed) {
    report->Fail(StrFormat("%.3f of the replayed path is in no layer's span",
                           unattributed));
  }
  report->Add("trace.replay_s", wall_us * 1e-6, "s");
}

Status WriteTrace(const Options& options, const std::vector<Span>& spans) {
  const std::string path = StrFormat(
      "%s/trace_%s_%llu.json", options.work_dir.c_str(),
      options.workload->name, static_cast<unsigned long long>(options.seed));
  std::ofstream out(path);
  out << ChromeTraceJson(spans);
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// What every traced run does after its traced operation: the replay
/// over `dataset`, then the per-layer metrics and the trace file. `fpe`
/// is the workload's own model, or null to pretrain one for the probes.
void ReplayAndReport(const Options& options, const data::Dataset& dataset,
                     const fpe::FpeModel* fpe, const CounterSnapshot& before,
                     const CounterSnapshot& after, double traced_seconds,
                     SpanRecorder* recorder, Report* report) {
  std::optional<fpe::FpeModel> probe;
  if (fpe == nullptr) {
    auto model = PretrainFpeModel(options);
    if (!model.ok()) {
      report->Fail("probe FPE model: " + model.status().ToString());
      return;
    }
    probe = std::move(model).ValueOrDie();
    fpe = &*probe;
  }
  // Single-threaded, like an evaluation inside the search: a pool worker
  // runs nested parallel regions (CV folds, forest trees) inline.
  runtime::SetGlobalThreads(1);
  auto replay = Replay(options, dataset, *fpe, recorder);
  runtime::SetGlobalThreads(options.threads);
  if (!replay.ok()) {
    report->Fail("replay: " + replay.status().ToString());
    return;
  }
  report->attempted += replay->candidates;
  report->failed += replay->mismatches;
  if (replay->mismatches > 0) {
    report->Fail("replayed CV score differs from TaskEvaluator::Score");
  }
  const std::vector<Span> spans = recorder->spans();
  AddReplayMetrics(spans, report);
  AddCounterMetrics(before, after, traced_seconds, report);
  const Status written = WriteTrace(options, spans);
  if (!written.ok()) report->Fail(written.ToString());
}

/// One serve load step's outcome.
struct StepResult {
  double offered = 0.0;   ///< Requests/s; 0 for saturation and closed loop.
  double achieved = 0.0;  ///< Requests/s over the whole step.
  /// Rows/s completed in the kBestWindowQuantile-th 100 ms window.
  double best_rows_per_s = 0.0;
  /// Closed loop: p50 of the window at the (1 - kBestWindowQuantile)
  /// quantile of 100 ms windows' p50s.
  double best_p50_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double gen_late_p99_ms = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  bool meets_slo = false;
};

/// The open-loop ladder's per-layer diagnostics: p50, p99 and achieved
/// rate at each rate, the generator's worst lateness and the highest rate
/// meeting the SLO. `ladder` is empty (all zero) on the search workloads.
void AddLadderMetrics(const std::vector<StepResult>& ladder, Report* report) {
  double late_ms = 0.0;
  double slo_qps = 0.0;
  for (size_t r = 0; r < std::size(kOpenLoopRates); ++r) {
    const StepResult step = r < ladder.size() ? ladder[r] : StepResult();
    const std::string prefix =
        StrFormat("serve.open%.0fk", kOpenLoopRates[r] / 1000.0);
    report->Add(prefix + "_p50_ms", step.p50_ms, "ms");
    report->Add(prefix + "_p99_ms", step.p99_ms, "ms");
    report->Add(prefix + "_qps", step.achieved, "1/s");
    late_ms = std::max(late_ms, step.gen_late_p99_ms);
    if (step.meets_slo) slo_qps = std::max(slo_qps, step.offered);
  }
  report->Add("serve.gen_late_p99_ms", late_ms, "ms");
  report->Add("serve.slo_max_qps", slo_qps, "1/s");
}

// ---------------------------------------------------------------------------
// Search workloads.

Report RunSearchWorkload(const Options& options) {
  Report report;
  std::vector<double> setup_seconds;
  std::optional<SearchSetup> setup;
  for (Stopwatch total; MoreSetups(options, setup_seconds.size(), total);) {
    setup.reset();
    Stopwatch watch;
    auto made = MakeSearchSetup(options);
    if (!made.ok()) {
      report.Fail("setup: " + made.status().ToString());
      return report;
    }
    setup = std::move(made).ValueOrDie();
    setup_seconds.push_back(watch.ElapsedSeconds());
  }

  // Warm-up pass: one untimed search per draw, the reference the timed
  // repetitions must reproduce bit for bit.
  std::vector<afe::SearchResult> warm;
  size_t generated = 0, evaluated = 0, kept = 0, evals = 0;
  double score = 0.0;
  for (const data::Dataset& dataset : setup->datasets) {
    ++report.attempted;
    auto result = RunSearch(options, *setup, dataset);
    if (!result.ok()) {
      ++report.failed;
      report.Fail("warm-up search: " + result.status().ToString());
      return report;
    }
    std::printf(
        "{\"search\": {\"method\": \"%s\", \"rows\": %zu, \"features\": %zu, "
        "\"generated\": %zu, \"evaluated\": %zu, \"kept\": %zu, "
        "\"downstream_evals\": %zu, \"base_score\": %.6f, "
        "\"best_score\": %.6f}}\n",
        result->method.c_str(), dataset.num_rows(), dataset.num_features(),
        result->features_generated, result->features_evaluated,
        result->features_kept, result->downstream_evaluations,
        result->base_score, result->best_score);
    generated += result->features_generated;
    evaluated += result->features_evaluated;
    kept += result->features_kept;
    evals += result->downstream_evaluations;
    score += result->best_score / static_cast<double>(setup->datasets.size());
    warm.push_back(std::move(result).ValueOrDie());
  }
  const std::vector<double> passes = TimePasses(options, *setup, warm, &report);
  const double median_pass = stats::Median(passes);
  std::string listed;
  for (const double pass : passes) {
    listed += StrFormat("%s%.4f", listed.empty() ? "" : ", ", pass);
  }
  std::printf("{\"passes_s\": [%s]}\n", listed.c_str());
  const double searches = static_cast<double>(setup->datasets.size());

  if (!options.trace) {
    std::vector<double> throughput;
    for (double pass : passes) {
      throughput.push_back(static_cast<double>(generated) / pass);
    }
    report.Add("setup_s", stats::Median(setup_seconds), "s");
    report.Add("latency_p50_ms", median_pass / searches * 1e3, "ms");
    report.Add("throughput_per_s", stats::Median(throughput), "1/s");
    report.Add("score", score, "score");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return report;
  }

  // Traced run: one pass with a recording gateway, then the replay.
  runtime::TextMetricGateway gateway;
  InstallGateway(&gateway, options.threads);
  SpanRecorder recorder;
  const CounterSnapshot before = Snapshot(&gateway);
  std::optional<double> traced;
  {
    ScopedSpan span(&recorder, "search.pass", 0);
    traced = TimedPass(options, *setup, warm, &report);
  }
  const CounterSnapshot after = Snapshot(&gateway);
  InstallGateway(nullptr, options.threads);
  ReplayAndReport(options, setup->datasets.front(), setup->fpe.get(), before,
                  after, traced.value_or(0.0), &recorder, &report);
  report.Add("trace.overhead_frac",
             traced.has_value() ? *traced / median_pass - 1.0 : 0.0, "frac");
  AddLadderMetrics({}, &report);
  report.Add("downstream_evals", static_cast<double>(evals), "count");
  report.Add("afe.evaluated_frac",
             Ratio(static_cast<double>(evaluated),
                   static_cast<double>(generated)),
             "frac");
  report.Add("afe.kept_frac",
             Ratio(static_cast<double>(kept), static_cast<double>(evaluated)),
             "frac");
  return report;
}

// ---------------------------------------------------------------------------
// serve_ladder.

struct ServeSetup {
  Inputs inputs;
  std::string model_path;
  /// Reference predictions for every held-out row, from a direct
  /// FlatPredictor run on the loaded container.
  std::vector<double> expected;
  std::unique_ptr<serve::server::EafeServer> server;
};

Result<std::unique_ptr<serve::server::EafeServer>> StartServer(
    const std::string& model_path) {
  serve::server::EafeServer::Options server_options;
  EAFE_ASSIGN_OR_RETURN(auto server,
                        serve::server::EafeServer::Create(server_options));
  EAFE_RETURN_NOT_OK(server->AddModelFile("forest", model_path));
  EAFE_RETURN_NOT_OK(server->Start());
  return server;
}

Result<ServeSetup> MakeServeSetup(const Options& options, Report* report) {
  ServeSetup setup;
  EAFE_ASSIGN_OR_RETURN(std::vector<Inputs> draws, MakeInputs(options, 1));
  setup.inputs = std::move(draws.front());
  const ml::EvaluatorOptions evaluator = EvaluatorFor();
  ml::RandomForest::Options forest_options;
  forest_options.task = options.workload->task;
  forest_options.num_trees = evaluator.rf_trees;
  forest_options.max_depth = evaluator.rf_max_depth;
  forest_options.seed = kConfigSeed;
  ml::RandomForest forest(forest_options);
  EAFE_RETURN_NOT_OK(
      forest.Fit(setup.inputs.train.features, setup.inputs.train.labels));
  setup.model_path = options.work_dir + "/serve_ladder_forest.eafe";
  EAFE_RETURN_NOT_OK(serve::SaveModel(forest, setup.model_path));
  EAFE_ASSIGN_OR_RETURN(serve::LoadedModel loaded,
                        serve::LoadModel(setup.model_path));
  EAFE_ASSIGN_OR_RETURN(serve::FlatPredictor predictor,
                        serve::FlatPredictor::Create(std::move(*loaded.tree)));
  EAFE_ASSIGN_OR_RETURN(setup.expected,
                        predictor.Predict(setup.inputs.heldout.features));
  EAFE_ASSIGN_OR_RETURN(const std::vector<double> in_memory,
                        forest.Predict(setup.inputs.heldout.features));
  if (in_memory.size() != setup.expected.size() ||
      std::memcmp(in_memory.data(), setup.expected.data(),
                  in_memory.size() * sizeof(double)) != 0) {
    report->Fail("loaded container predicts differently from the forest");
  }
  EAFE_ASSIGN_OR_RETURN(setup.server, StartServer(setup.model_path));
  return setup;
}

/// Request i asks for `rows_per_request` held-out rows from
/// i * rows_per_request onwards, wrapping; this is its k-th row.
size_t RequestRow(const ServeSetup& setup, size_t i, size_t k,
                  size_t rows_per_request) {
  return (i * rows_per_request + k) % setup.inputs.heldout.num_rows();
}

/// Appends request i's predict frame (request id i + 1) to `out`.
void EncodeRequest(const ServeSetup& setup, size_t i, size_t rows_per_request,
                   std::vector<double>* row, std::string* out) {
  const data::DataFrame& rows = setup.inputs.heldout.features;
  std::vector<double> values;
  values.reserve(rows_per_request * rows.num_columns());
  for (size_t k = 0; k < rows_per_request; ++k) {
    rows.CopyRow(RequestRow(setup, i, k, rows_per_request), row);
    values.insert(values.end(), row->begin(), row->end());
  }
  *out += serve::server::EncodePredictRequest(
      i + 1, "forest", false, static_cast<uint32_t>(rows_per_request),
      static_cast<uint32_t>(rows.num_columns()), values);
}

/// True when `reply` answers request i with the direct FlatPredictor's
/// values, bit for bit.
bool ReplyMatches(const ServeSetup& setup, const serve::server::Message& reply,
                  size_t i, size_t rows_per_request) {
  if (reply.type != serve::server::MessageType::kPredictResponse ||
      reply.values.size() != rows_per_request) {
    return false;
  }
  for (size_t k = 0; k < rows_per_request; ++k) {
    if (std::memcmp(&reply.values[k],
                    &setup.expected[RequestRow(setup, i, k, rows_per_request)],
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// One load step over kConnections connections: one sender task and one
/// receiver task per connection. An open-loop step (rate > 0) sends
/// request i at start + i / rate and times it from that due time, so a
/// stalled sender or server charges every request it delayed. The
/// saturation step (rate 0) refills each connection's window in one write
/// whenever a quarter of it is free, for `seconds`, and times each request
/// from its send. Request i goes to connection i % kConnections and asks
/// for held-out rows i * rows_per_request onwards.
StepResult RunStep(const ServeSetup& setup, double rate,
                   size_t rows_per_request, double seconds) {
  using Clock = std::chrono::steady_clock;
  const bool saturate = rate <= 0.0;
  const size_t planned =
      saturate ? static_cast<size_t>(kMaxSaturationQps * seconds)
               : std::max(static_cast<size_t>(rate * seconds), kConnections);
  const size_t cols = setup.inputs.heldout.features.num_columns();
  StepResult step;
  step.offered = rate;

  std::vector<serve::server::BlockingClient> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = serve::server::BlockingClient::Connect(
        "127.0.0.1", setup.server->port());
    if (!client.ok()) {
      step.attempted = step.failed = planned;
      return step;
    }
    clients.push_back(std::move(client).ValueOrDie());
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
  };
  auto since_start_ms = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };
  // Saturation send times, per connection, by sequence % kWindow: the
  // window keeps at most kWindow requests of a connection in flight and
  // the server answers a connection's predicts in order.
  std::vector<float> sent_at_ms[kConnections];
  for (auto& ring : sent_at_ms) ring.assign(saturate ? kWindow : 0, 0.0f);
  std::vector<float> late_ms;
  std::vector<float> latency_ms[kConnections];
  std::vector<float> reply_ms[kConnections];
  std::atomic<size_t> sent[kConnections];
  std::atomic<size_t> in_flight[kConnections];
  for (size_t c = 0; c < kConnections; ++c) sent[c] = in_flight[c] = 0;
  std::atomic<bool> done{false};
  std::atomic<bool> abort{false};
  std::atomic<double> last_reply_ms{0.0};
  // Saturation: the sender sleeps until a receiver frees a quarter of a
  // window, so it does not spin on a core the server needs.
  std::mutex room_mu;
  std::condition_variable room_cv;
  auto has_room = [&] {
    for (const auto& count : in_flight) {
      if (count.load(std::memory_order_acquire) <= kWindow - kWindow / 4) {
        return true;
      }
    }
    return false;
  };

  runtime::ThreadPool pool(1 + kConnections);
  std::vector<std::future<void>> tasks;
  // The sender and the receivers touch disjoint BlockingClient state:
  // SendBytes only writes the socket, ReadReply owns the read buffer.
  tasks.push_back(pool.Submit([&] {
    std::vector<double> row(cols);
    std::string frames;
    if (saturate) {
      size_t next[kConnections] = {};
      while (!abort.load(std::memory_order_relaxed) && Clock::now() < stop) {
        bool wrote = false;
        for (size_t c = 0; c < kConnections; ++c) {
          const size_t room =
              kWindow - in_flight[c].load(std::memory_order_acquire);
          if (room < kWindow / 4) continue;  // has_room() is false.
          frames.clear();
          size_t count = 0;
          const float now_ms =
              static_cast<float>(since_start_ms(Clock::now()));
          for (; count < room; ++count) {
            const size_t i = (next[c] + count) * kConnections + c;
            if (i >= planned) break;
            sent_at_ms[c][(next[c] + count) % kWindow] = now_ms;
            EncodeRequest(setup, i, rows_per_request, &row, &frames);
          }
          if (count == 0) continue;
          in_flight[c].fetch_add(count, std::memory_order_acq_rel);
          if (!clients[c].SendBytes(frames).ok()) {
            abort.store(true, std::memory_order_relaxed);
            break;
          }
          next[c] += count;
          sent[c].fetch_add(count, std::memory_order_release);
          wrote = true;
        }
        if (!wrote) {
          std::unique_lock<std::mutex> lock(room_mu);
          room_cv.wait_until(lock, stop, [&] {
            return has_room() || abort.load(std::memory_order_relaxed);
          });
        }
      }
    } else {
      for (size_t i = 0; i < planned; ++i) {
        const size_t c = i % kConnections;
        const Clock::time_point when = due(i);
        while (Clock::now() + std::chrono::microseconds(200) < when) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        while (Clock::now() < when ||
               in_flight[c].load(std::memory_order_acquire) >= kWindow) {
          if (abort.load(std::memory_order_relaxed)) break;
          std::this_thread::yield();
        }
        if (abort.load(std::memory_order_relaxed)) break;
        frames.clear();
        EncodeRequest(setup, i, rows_per_request, &row, &frames);
        late_ms.push_back(static_cast<float>(
            std::chrono::duration<double, std::milli>(Clock::now() - when)
                .count()));
        in_flight[c].fetch_add(1, std::memory_order_acq_rel);
        if (!clients[c].SendBytes(frames).ok()) break;
        sent[c].fetch_add(1, std::memory_order_release);
      }
    }
    done.store(true, std::memory_order_release);
  }));
  for (size_t c = 0; c < kConnections; ++c) {
    tasks.push_back(pool.Submit([&, c] {
      const size_t open_loop_replies =
          planned / kConnections + (c < planned % kConnections ? 1 : 0);
      // Open loop knows its reply count up front and blocks in recv;
      // saturation reads until the sender is done and nothing is in
      // flight.
      auto more = [&](size_t received) {
        if (!saturate) return received < open_loop_replies;
        for (;;) {
          const bool finished = done.load(std::memory_order_acquire);
          if (received < sent[c].load(std::memory_order_acquire)) return true;
          if (finished) return false;
          std::this_thread::yield();
        }
      };
      for (size_t received = 0; more(received); ++received) {
        auto reply = clients[c].ReadReply();
        const Clock::time_point now = Clock::now();
        if (!reply.ok()) return;
        const uint64_t id = reply->request_id;
        const bool known =
            id != 0 && id <= planned && (id - 1) % kConnections == c;
        const size_t i = known ? static_cast<size_t>(id - 1) : 0;
        // Read the send time before freeing the window slot it lives in.
        const double from_ms =
            !known     ? 0.0
            : saturate ? static_cast<double>(
                             sent_at_ms[c][i / kConnections % kWindow])
                       : since_start_ms(due(i));
        if (in_flight[c].fetch_sub(1, std::memory_order_acq_rel) ==
            kWindow - kWindow / 4 + 1) {
          std::lock_guard<std::mutex> lock(room_mu);
          room_cv.notify_one();
        }
        if (!known || !ReplyMatches(setup, *reply, i, rows_per_request)) {
          continue;
        }
        const double now_ms = since_start_ms(now);
        latency_ms[c].push_back(static_cast<float>(now_ms - from_ms));
        reply_ms[c].push_back(static_cast<float>(now_ms));
        double last = last_reply_ms.load(std::memory_order_relaxed);
        while (now_ms > last && !last_reply_ms.compare_exchange_weak(
                                    last, now_ms, std::memory_order_relaxed)) {
        }
      }
    }));
  }
  // A receiver blocked on a reply that never comes is released by
  // stopping the server, which closes its connections.
  const Clock::time_point deadline =
      stop + std::chrono::seconds(kStepGraceSeconds);
  for (auto& task : tasks) {
    if (task.wait_until(deadline) != std::future_status::ready) {
      abort.store(true, std::memory_order_relaxed);
      setup.server->Stop();
    }
    task.wait();
  }
  for (auto& client : clients) client.Close();

  // Rows completed per window while requests were being sent.
  const double window_ms = kWindowSeconds * 1e3;
  std::vector<double> window_rows(
      static_cast<size_t>(seconds / kWindowSeconds), 0.0);
  std::vector<double> ok;
  for (size_t c = 0; c < kConnections; ++c) {
    ok.insert(ok.end(), latency_ms[c].begin(), latency_ms[c].end());
    for (const float ms : reply_ms[c]) {
      const size_t w = static_cast<size_t>(ms / window_ms);
      if (w < window_rows.size()) {
        window_rows[w] += static_cast<double>(rows_per_request);
      }
    }
  }
  step.attempted = planned;
  if (saturate) {
    step.attempted = 0;
    for (const auto& count : sent) step.attempted += count.load();
  }
  step.failed = step.attempted - std::min(step.attempted, ok.size());
  step.achieved =
      Ratio(static_cast<double>(ok.size()), last_reply_ms.load() * 1e-3);
  step.best_rows_per_s =
      Percentile(window_rows, kBestWindowQuantile) / kWindowSeconds;
  step.p50_ms = Percentile(ok, 0.50);
  step.p99_ms = Percentile(ok, 0.99);
  step.gen_late_p99_ms =
      Percentile(std::vector<double>(late_ms.begin(), late_ms.end()), 0.99);
  step.meets_slo = !saturate && step.failed == 0 &&
                   step.p99_ms <= kSloP99Ms && step.achieved >= 0.95 * rate;
  std::printf(
      "{\"step\": {\"offered_qps\": %.0f, \"rows_per_request\": %zu, "
      "\"achieved_qps\": %.1f, \"best_rows_per_s\": %.0f, "
      "\"attempted\": %zu, \"failed\": %zu, "
      "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"gen_late_p99_ms\": %.4f, "
      "\"meets_slo\": %s}}\n",
      rate, rows_per_request, step.achieved, step.best_rows_per_s,
      step.attempted, step.failed, step.p50_ms,
      step.p99_ms, step.gen_late_p99_ms, step.meets_slo ? "true" : "false");
  return step;
}

/// The closed-loop step: one caller sends a request of `rows_per_request`
/// rows, waits for the reply and sends the next, for `seconds`. Each
/// request is timed from its send to its reply. With one caller no two
/// requests share a micro-batch, so this is one request's round trip.
/// Like the saturated rate, the gated latency comes from the fast 100 ms
/// windows: the p50 of the window at the (1 - kBestWindowQuantile)
/// quantile of window p50s.
StepResult RunClosedLoop(const ServeSetup& setup, size_t rows_per_request,
                         double seconds) {
  using Clock = std::chrono::steady_clock;
  StepResult step;
  auto connected = serve::server::BlockingClient::Connect(
      "127.0.0.1", setup.server->port());
  if (!connected.ok()) {
    step.attempted = step.failed = 1;
    return step;
  }
  serve::server::BlockingClient client = std::move(connected).ValueOrDie();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<double> ok;
  // Latencies by the 100 ms window their request was sent in.
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(std::ceil(seconds / kWindowSeconds)));
  runtime::ThreadPool pool(1);
  std::future<void> caller = pool.Submit([&] {
    std::vector<double> row(setup.inputs.heldout.features.num_columns());
    std::string frame;
    for (size_t i = 0; Clock::now() < stop; ++i) {
      frame.clear();
      EncodeRequest(setup, i, rows_per_request, &row, &frame);
      ++step.attempted;
      const Clock::time_point sent = Clock::now();
      if (!client.SendBytes(frame).ok()) return;
      auto reply = client.ReadReply();
      const Clock::time_point now = Clock::now();
      if (!reply.ok()) return;
      if (reply->request_id == i + 1 &&
          ReplyMatches(setup, *reply, i, rows_per_request)) {
        const double ms =
            std::chrono::duration<double, std::milli>(now - sent).count();
        ok.push_back(ms);
        const auto w = static_cast<size_t>(
            std::chrono::duration<double>(sent - start).count() /
            kWindowSeconds);
        windows[std::min(w, windows.size() - 1)].push_back(ms);
      }
    }
  });
  // A caller blocked on a reply that never comes is released by stopping
  // the server, which closes its connection.
  if (caller.wait_until(stop + std::chrono::seconds(kStepGraceSeconds)) !=
      std::future_status::ready) {
    setup.server->Stop();
  }
  caller.wait();
  client.Close();

  step.failed = step.attempted - std::min(step.attempted, ok.size());
  step.achieved = Ratio(static_cast<double>(ok.size()), seconds);
  step.p50_ms = Percentile(ok, 0.50);
  step.p99_ms = Percentile(ok, 0.99);
  std::vector<double> window_p50_ms;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) window_p50_ms.push_back(Percentile(window, 0.50));
  }
  step.best_p50_ms = Percentile(window_p50_ms, 1.0 - kBestWindowQuantile);
  std::printf(
      "{\"closed_loop\": {\"rows_per_request\": %zu, \"achieved_qps\": %.1f, "
      "\"attempted\": %zu, \"failed\": %zu, \"p50_ms\": %.4f, "
      "\"p99_ms\": %.4f, \"best_p50_ms\": %.4f}}\n",
      rows_per_request, step.achieved, step.attempted, step.failed,
      step.p50_ms, step.p99_ms, step.best_p50_ms);
  return step;
}

Report RunServeWorkload(const Options& options) {
  Report report;
  std::vector<double> setup_seconds;
  std::optional<ServeSetup> setup;
  for (Stopwatch total; MoreSetups(options, setup_seconds.size(), total);) {
    setup.reset();  // Stop the previous server before the next set-up.
    Stopwatch watch;
    auto made = MakeServeSetup(options, &report);
    if (!made.ok()) {
      report.Fail("setup: " + made.status().ToString());
      return report;
    }
    setup = std::move(made).ValueOrDie();
    setup_seconds.push_back(watch.ElapsedSeconds());
  }
  // Load-generator buffers would dominate a high-water mark taken later.
  const double setup_rss_mb = PeakRssMb();
  if (!report.correct) return report;

  auto account = [&](const StepResult& step) {
    report.attempted += step.attempted;
    report.failed += step.failed;
    if (step.failed > 0) {
      report.Fail(StrFormat("%zu of %zu requests failed or differed from "
                            "FlatPredictor",
                            step.failed, step.attempted));
    }
  };

  if (!options.trace) {
    const StepResult closed = RunClosedLoop(
        *setup, kClosedLoopRows, options.seconds * kClosedLoopShare);
    account(closed);
    const StepResult saturated =
        RunStep(*setup, 0.0, kSaturationRows,
                options.seconds * (1.0 - kClosedLoopShare));
    account(saturated);
    report.Add("setup_s", stats::Median(setup_seconds), "s");
    report.Add("latency_p50_ms", closed.best_p50_ms, "ms");
    report.Add("throughput_per_s", saturated.best_rows_per_s, "1/s");
    report.Add("score",
               ml::TaskScore(options.workload->task,
                             setup->inputs.heldout.labels, setup->expected),
               "score");
    report.Add("peak_rss_mb", setup_rss_mb, "MB");
    return report;
  }

  // Traced run: the open-loop ladder, saturation without and then with a
  // recording gateway (on a fresh server, whose instruments are captured
  // at construction), then the same replay as the search workloads.
  const double rung_seconds = options.seconds * kOpenLoopShare /
                              static_cast<double>(std::size(kOpenLoopRates));
  const double scale = options.smoke ? 0.125 : 1.0;
  std::vector<StepResult> ladder;
  for (const double rate : kOpenLoopRates) {
    ladder.push_back(RunStep(*setup, rate * scale, 1, rung_seconds));
    account(ladder.back());
  }
  const double half = options.seconds * (1.0 - kOpenLoopShare) / 2.0;
  const StepResult base = RunStep(*setup, 0.0, kSaturationRows, half);
  account(base);
  runtime::TextMetricGateway gateway;
  InstallGateway(&gateway, options.threads);
  setup->server.reset();
  auto restarted = StartServer(setup->model_path);
  if (!restarted.ok()) {
    report.Fail("restart: " + restarted.status().ToString());
    return report;
  }
  setup->server = std::move(restarted).ValueOrDie();
  SpanRecorder recorder;
  const CounterSnapshot before = Snapshot(&gateway);
  StepResult traced;
  {
    ScopedSpan span(&recorder, "serve.saturation_step", 0);
    traced = RunStep(*setup, 0.0, kSaturationRows, half);
  }
  account(traced);
  const CounterSnapshot after = Snapshot(&gateway);
  setup->server.reset();
  InstallGateway(nullptr, options.threads);
  ReplayAndReport(options, setup->inputs.train, nullptr, before, after, half,
                  &recorder, &report);
  report.Add("trace.overhead_frac",
             Ratio(base.best_rows_per_s, traced.best_rows_per_s) - 1.0,
             "frac");
  AddLadderMetrics(ladder, &report);
  report.Add("downstream_evals", 0.0, "count");
  report.Add("afe.evaluated_frac", 0.0, "frac");
  report.Add("afe.kept_frac", 0.0, "frac");
  return report;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "", "eafe_tall|nfs_tall|eafe_wide|serve_ladder")
      .AddInt("seed", 1, "input seed")
      .AddDouble("seconds", 10.0, "measurement budget per run")
      .AddInt("trace", 0, "1: per-layer metrics and a Chrome trace")
      .AddString("scale", "full", "full | smoke (CI-sized inputs)")
      .AddString("work-dir", ".",
                 "directory for the model container and the Chrome trace");
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;  // --help.
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  Options options;
  for (const Workload& workload : kWorkloads) {
    if (flags.GetString("workload") == workload.name) {
      options.workload = &workload;
    }
  }
  const std::string scale = flags.GetString("scale");
  if (options.workload == nullptr || (scale != "full" && scale != "smoke")) {
    std::fprintf(stderr, "unknown --workload '%s' or --scale '%s'\n",
                 flags.GetString("workload").c_str(), scale.c_str());
    return 2;
  }
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = std::max(flags.GetDouble("seconds"), 0.1);
  options.trace = flags.GetInt("trace") != 0;
  options.smoke = scale == "smoke";
  options.work_dir = flags.GetString("work-dir");
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  options.threads = std::min<size_t>(4, nproc);
  runtime::SetGlobalThreads(options.threads);

  std::printf(
      "{\"host\": {\"nproc\": %zu, \"threads\": %zu, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"scale\": \"%s\"}}\n",
      nproc, options.threads, simd::LevelName(simd::ActiveLevel()),
      EAFE_E2E_BUILD_TYPE, options.workload->name,
      static_cast<unsigned long long>(options.seed),
      options.smoke ? "smoke" : "full");
  const Report report = options.workload->kind == Kind::kServe
                            ? RunServeWorkload(options)
                            : RunSearchWorkload(options);
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace eafe::e2e

int main(int argc, char** argv) { return eafe::e2e::Main(argc, argv); }
