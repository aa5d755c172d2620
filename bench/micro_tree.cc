// Micro-benchmark for the tree split-finding backends: single-thread
// DecisionTree fit time and training score, exact vs histogram, over a
// grid of (rows, features) shapes for both task types. Emits one JSON
// line per configuration:
//
//   {"task": "classification", "rows": 10000, "features": 25,
//    "strategy": "histogram", "fit_seconds": ..., "score": ...,
//    "speedup_vs_exact": ...}
//
// The interesting column is speedup_vs_exact at rows >= 10k — the
// evaluation hot path's regime — where histogram split finding should be
// several times faster while scoring within tolerance of exact.
//
// A second grid benchmarks the forest through the same shapes: fit with
// the shared frame binner (bin once, row-id bootstrap views) vs the
// per-tree materialize-and-rebin reference, and predict through the flat
// walk over bin codes vs the raw-double reference walk over the same
// trees (PredictThresholds). The predict pair is bit-identical by
// construction, so its lines report pure speed deltas:
//
//   {"bench": "forest_fit", ..., "mode": "shared",
//    "fit_seconds": ..., "speedup_vs_per_tree": ...}
//   {"bench": "forest_predict", ..., "mode": "flat",
//    "predict_seconds": ..., "speedup_vs_double": ...}
//
// plus one forest_fit line at the E-AFE wide-search shape (1500x32, 8
// trees of depth 6, carrying "trees" and "max_depth" keys), and binning
// lines at the search shapes (8000x9 and 1500x33): a FeatureBinner::Fit
// of the whole frame vs an Extend that bins one column appended to a
// binner fitted on the rest, which is what each candidate evaluation
// pays. The pair must be bit-identical:
//
//   {"bench": "bin_frame", "rows": ..., "features": ..., "mode": "fit",
//    "seconds": ...}
//   {"bench": "bin_frame", ..., "mode": "extend", "seconds": ...,
//    "speedup_vs_fit": ...}
//
// A grid run ends with a host line (nproc, SIMD tier, build type, wall
// seconds).
//
// A third grid benchmarks the serving engine: batch predict through the
// flat arrays of a save→load round trip (serve/flat_predictor.h) vs the
// raw-double reference walk over the same 50-tree forest. The pair is
// asserted bit-identical:
//
//   {"bench": "flat_predict", ..., "mode": "flat", "seconds": ...,
//    "speedup_vs_double": ...}
//
// A fourth grid benchmarks the gradient booster through the same shapes —
// fit and predict, with the shared-binner forest as the cost reference
// for the evaluator matrix:
//
//   {"bench": "gbdt_fit", ..., "mode": "gbdt", "seconds": ...,
//    "score": ..., "speed_vs_forest": ...}
//
// `--smoke` runs one fixed shape and exits nonzero unless the histogram
// backend is faster than exact, the shared forest fit is faster than the
// per-tree one, the flat walk agrees bit-for-bit with the raw-double
// reference and beats it by 1.35x after a save→load round trip, scores
// are within tolerance, the booster bins
// the frame exactly once per fit, refits bit-identically, and clears the
// no-information score bar, and an extended binner equals a full Fit bit
// for bit (its timings are reported, not gated); tools/check.sh uses it
// as a Release-mode regression gate. All timings are single-thread (the
// pool is pinned to one thread) so deltas reflect the algorithmic
// change, not parallel fan-out.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/flags.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "data/dataframe.h"
#include "ml/decision_tree.h"
#include "ml/feature_binner.h"
#include "ml/flat_model.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "runtime/thread_pool.h"
#include "serve/flat_predictor.h"
#include "serve/model_store.h"
#include "simd/simd.h"

namespace eafe::bench {
namespace {

/// Synthetic table with continuous (all-distinct) columns so the exact
/// backend pays full per-node sorting cost: half the columns drive the
/// label, half are noise.
data::Dataset MakeTable(data::TaskType task, size_t rows, size_t features,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> columns(features,
                                           std::vector<double>(rows));
  std::vector<double> labels(rows);
  const size_t informative = std::max<size_t>(features / 2, 1);
  for (size_t i = 0; i < rows; ++i) {
    double signal = 0.0;
    for (size_t f = 0; f < features; ++f) {
      columns[f][i] = rng.Normal();
      if (f < informative) {
        signal += (f % 2 == 0 ? 1.0 : -0.5) * columns[f][i];
      }
    }
    labels[i] = task == data::TaskType::kClassification
                    ? (signal > 0.0 ? 1.0 : 0.0)
                    : signal + rng.Normal(0.0, 0.1);
  }
  data::Dataset dataset;
  dataset.task = task;
  dataset.labels = std::move(labels);
  for (size_t f = 0; f < features; ++f) {
    const Status added = dataset.features.AddColumn(
        data::Column("f" + std::to_string(f), std::move(columns[f])));
    EAFE_CHECK_MSG(added.ok(), added.ToString().c_str());
  }
  return dataset;
}

struct FitResult {
  double seconds = 0.0;
  double score = 0.0;
};

/// Best-of-`reps` single-thread fit; score is on the training table
/// (F1-style accuracy / 1-RAE), which is what the two backends should
/// agree on.
FitResult TimeFit(const data::Dataset& dataset, ml::SplitStrategy strategy,
                  size_t reps) {
  ml::DecisionTree::Options options;
  options.task = dataset.task;
  options.split_strategy = strategy;
  FitResult result;
  for (size_t r = 0; r < reps; ++r) {
    ml::DecisionTree tree(options);
    Stopwatch timer;
    const Status fitted = tree.Fit(dataset.features, dataset.labels);
    const double seconds = timer.ElapsedSeconds();
    EAFE_CHECK_MSG(fitted.ok(), fitted.ToString().c_str());
    if (r == 0 || seconds < result.seconds) result.seconds = seconds;
    if (r == 0) {
      auto predicted = tree.Predict(dataset.features);
      EAFE_CHECK(predicted.ok());
      result.score = ml::TaskScore(dataset.task, dataset.labels,
                                   predicted.ValueOrDie());
    }
  }
  return result;
}

/// Best-of-`reps` single-thread forest fit, shared-binner or per-tree
/// reference mode; `predictions` (optional) receives the training-table
/// predictions for the cross-mode identity check.
FitResult TimeForestFit(const data::Dataset& dataset, bool share_binner,
                        size_t reps,
                        std::vector<double>* predictions = nullptr,
                        size_t num_trees = 10, size_t max_depth = 8) {
  ml::RandomForest::Options options;
  options.task = dataset.task;
  options.num_trees = num_trees;
  options.max_depth = max_depth;
  options.share_binner = share_binner;
  FitResult result;
  for (size_t r = 0; r < reps; ++r) {
    ml::RandomForest forest(options);
    Stopwatch timer;
    const Status fitted = forest.Fit(dataset.features, dataset.labels);
    const double seconds = timer.ElapsedSeconds();
    EAFE_CHECK_MSG(fitted.ok(), fitted.ToString().c_str());
    if (r == 0 || seconds < result.seconds) result.seconds = seconds;
    if (r == 0) {
      auto predicted = forest.Predict(dataset.features);
      EAFE_CHECK(predicted.ok());
      result.score = ml::TaskScore(dataset.task, dataset.labels,
                                   predicted.ValueOrDie());
      if (predictions != nullptr) {
        *predictions = std::move(predicted).ValueOrDie();
      }
    }
  }
  return result;
}

/// The raw-double reference walk over a shared-binner forest's image:
/// every tree routes row r on x[feature] <= cut(feature, split_bin),
/// tree-outer, and rows aggregate as the forest does (majority vote with
/// the lowest class id on ties, or the mean). The flat walk over codes
/// must match it bit for bit, and is timed against it.
std::vector<double> PredictThresholds(const ml::RandomForest& forest,
                                      const data::DataFrame& x) {
  const ml::FlatTreeModel& image = forest.image();
  const ml::FeatureBinner& binner = *forest.binner();
  const size_t n = x.num_rows();
  const size_t width = static_cast<size_t>(forest.num_classes());
  std::vector<double> out(n, 0.0);
  std::vector<uint32_t> votes(n * width, 0);
  for (size_t t = 0; t < image.num_trees(); ++t) {
    for (size_t r = 0; r < n; ++r) {
      size_t node = image.tree_offsets[t];
      while (image.feature[node] >= 0) {
        const size_t f = static_cast<size_t>(image.feature[node]);
        node = static_cast<size_t>(
            x.column(f)[r] <= binner.cut(f, image.split_bin[node])
                ? image.left[node]
                : image.right[node]);
      }
      if (width > 0) {
        ++votes[r * width + static_cast<size_t>(image.value[node])];
      } else {
        out[r] += image.value[node];
      }
    }
  }
  for (size_t r = 0; r < n; ++r) {
    if (width == 0) {
      out[r] /= static_cast<double>(image.num_trees());
      continue;
    }
    const uint32_t* row = votes.data() + r * width;
    out[r] = static_cast<double>(std::max_element(row, row + width) - row);
  }
  return out;
}

/// Best-of-`reps` predict over the training table through the forest's
/// flat walk or the raw-double reference walk. The forest is fit once
/// (outside the timer); both must return bit-identical predictions.
FitResult TimeForestPredict(const data::Dataset& dataset, bool flat,
                            size_t reps,
                            std::vector<double>* predictions = nullptr) {
  ml::RandomForest::Options options;
  options.task = dataset.task;
  ml::RandomForest forest(options);
  const Status fitted = forest.Fit(dataset.features, dataset.labels);
  EAFE_CHECK_MSG(fitted.ok(), fitted.ToString().c_str());
  FitResult result;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    std::vector<double> predicted =
        flat ? forest.Predict(dataset.features).ValueOrDie()
             : PredictThresholds(forest, dataset.features);
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < result.seconds) result.seconds = seconds;
    if (r == 0) {
      result.score = ml::TaskScore(dataset.task, dataset.labels, predicted);
      if (predictions != nullptr) *predictions = std::move(predicted);
    }
  }
  return result;
}

/// Best-of-`reps` single-thread booster fit at evaluator defaults (40
/// rounds, depth 3); `proba` (optional) receives the training-table
/// probabilities / raw scores for the refit bit-identity check.
FitResult TimeGbdtFit(const data::Dataset& dataset, size_t reps,
                      std::vector<double>* proba = nullptr) {
  ml::GradientBoostedTrees::Options options;
  options.task = dataset.task;
  FitResult result;
  for (size_t r = 0; r < reps; ++r) {
    ml::GradientBoostedTrees booster(options);
    Stopwatch timer;
    const Status fitted = booster.Fit(dataset.features, dataset.labels);
    const double seconds = timer.ElapsedSeconds();
    EAFE_CHECK_MSG(fitted.ok(), fitted.ToString().c_str());
    if (r == 0 || seconds < result.seconds) result.seconds = seconds;
    if (r == 0) {
      auto predicted = booster.Predict(dataset.features);
      EAFE_CHECK(predicted.ok());
      result.score = ml::TaskScore(dataset.task, dataset.labels,
                                   predicted.ValueOrDie());
      if (proba != nullptr) {
        auto p = booster.PredictProba(dataset.features);
        EAFE_CHECK(p.ok());
        *proba = std::move(p).ValueOrDie();
      }
    }
  }
  return result;
}

/// Best-of-`reps` booster predict over the training table (fit outside
/// the timer): one encode of the query frame, then uint8 routing through
/// every round's tree.
FitResult TimeGbdtPredict(const data::Dataset& dataset, size_t reps) {
  ml::GradientBoostedTrees::Options options;
  options.task = dataset.task;
  ml::GradientBoostedTrees booster(options);
  const Status fitted = booster.Fit(dataset.features, dataset.labels);
  EAFE_CHECK_MSG(fitted.ok(), fitted.ToString().c_str());
  FitResult result;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    auto predicted = booster.Predict(dataset.features);
    const double seconds = timer.ElapsedSeconds();
    EAFE_CHECK(predicted.ok());
    if (r == 0 || seconds < result.seconds) result.seconds = seconds;
    if (r == 0) {
      result.score = ml::TaskScore(dataset.task, dataset.labels,
                                   predicted.ValueOrDie());
    }
  }
  return result;
}

/// Serving-engine comparison: one forest (50 trees, so traversal — not
/// query encoding — dominates the batch), predicted through the
/// raw-double reference walk vs the flat engine after a full
/// serialize→deserialize round trip. The pair must agree bit for bit;
/// the timing delta is the flat layout's win (16-byte packed nodes,
/// row-major query codes, branchless encode).
struct FlatPair {
  FitResult raw;
  FitResult flat;
  bool identical = false;
};

FlatPair TimeFlatVsDouble(const data::Dataset& dataset, size_t num_trees,
                          size_t reps) {
  ml::RandomForest::Options options;
  options.task = dataset.task;
  options.num_trees = num_trees;
  ml::RandomForest forest(options);
  const Status fitted = forest.Fit(dataset.features, dataset.labels);
  EAFE_CHECK_MSG(fitted.ok(), fitted.ToString().c_str());

  auto bytes = serve::SerializeForest(forest);
  EAFE_CHECK_MSG(bytes.ok(), bytes.status().ToString().c_str());
  auto loaded = serve::DeserializeModel(bytes.ValueOrDie());
  EAFE_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  auto predictor = serve::FlatPredictor::Create(*loaded->tree);
  EAFE_CHECK_MSG(predictor.ok(), predictor.status().ToString().c_str());

  FlatPair pair;
  std::vector<double> raw_pred, flat_pred;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    std::vector<double> predicted =
        PredictThresholds(forest, dataset.features);
    const double seconds = timer.ElapsedSeconds();
    if (r == 0 || seconds < pair.raw.seconds) pair.raw.seconds = seconds;
    if (r == 0) raw_pred = std::move(predicted);
  }
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    auto predicted = predictor.ValueOrDie().Predict(dataset.features);
    const double seconds = timer.ElapsedSeconds();
    EAFE_CHECK(predicted.ok());
    if (r == 0 || seconds < pair.flat.seconds) pair.flat.seconds = seconds;
    if (r == 0) flat_pred = std::move(predicted).ValueOrDie();
  }
  pair.raw.score = ml::TaskScore(dataset.task, dataset.labels, raw_pred);
  pair.flat.score = ml::TaskScore(dataset.task, dataset.labels, flat_pred);
  pair.identical = raw_pred == flat_pred;
  return pair;
}

void PrintLine(const data::Dataset& dataset, size_t features,
               ml::SplitStrategy strategy, const FitResult& result,
               double exact_seconds) {
  std::printf(
      "{\"task\": \"%s\", \"rows\": %zu, \"features\": %zu, "
      "\"strategy\": \"%s\", \"fit_seconds\": %.6f, \"score\": %.4f, "
      "\"speedup_vs_exact\": %.2f}\n",
      dataset.task == data::TaskType::kClassification ? "classification"
                                                      : "regression",
      dataset.features.num_rows(), features,
      ml::SplitStrategyToString(strategy).c_str(), result.seconds,
      result.score,
      result.seconds > 0.0 ? exact_seconds / result.seconds : 0.0);
}

const char* TaskName(const data::Dataset& dataset) {
  return dataset.task == data::TaskType::kClassification ? "classification"
                                                         : "regression";
}

void PrintForestLine(const char* bench, const data::Dataset& dataset,
                     size_t features, const char* mode,
                     const char* baseline_key, const FitResult& result,
                     double baseline_seconds) {
  std::printf(
      "{\"bench\": \"%s\", \"task\": \"%s\", \"rows\": %zu, "
      "\"features\": %zu, \"mode\": \"%s\", \"seconds\": %.6f, "
      "\"score\": %.4f, \"%s\": %.2f}\n",
      bench, TaskName(dataset), dataset.features.num_rows(), features, mode,
      result.seconds, result.score, baseline_key,
      result.seconds > 0.0 ? baseline_seconds / result.seconds : 0.0);
}

/// The forest_fit line at the E-AFE wide-search shape (e2ebench
/// eafe_wide): cross-validation fits 8-tree, depth-6 shared-binner
/// forests on a 1500x32 frame, where each node's histogram work, not the
/// row count, sets the fit time.
void PrintWideForestFit(uint64_t seed) {
  constexpr size_t kFeatures = 32, kTrees = 8, kDepth = 6;
  const data::Dataset dataset =
      MakeTable(data::TaskType::kClassification, 1500, kFeatures, seed);
  const FitResult shared = TimeForestFit(dataset, /*share_binner=*/true,
                                         /*reps=*/5, nullptr, kTrees, kDepth);
  std::printf(
      "{\"bench\": \"forest_fit\", \"task\": \"%s\", \"rows\": %zu, "
      "\"features\": %zu, \"trees\": %zu, \"max_depth\": %zu, "
      "\"mode\": \"shared\", \"seconds\": %.6f, \"score\": %.4f}\n",
      TaskName(dataset), dataset.features.num_rows(), kFeatures, kTrees,
      kDepth, shared.seconds, shared.score);
}

/// True when two binners hold the same bins: bin counts, the bit pattern
/// of every cut, and every code.
bool SameBins(const ml::FeatureBinner& a, const ml::FeatureBinner& b) {
  if (a.num_features() != b.num_features()) return false;
  for (size_t f = 0; f < a.num_features(); ++f) {
    if (a.num_bins(f) != b.num_bins(f) || a.codes(f) != b.codes(f)) {
      return false;
    }
    for (size_t c = 0; c + 1 < a.num_bins(f); ++c) {
      const double cut_a = a.cut(f, c);
      const double cut_b = b.cut(f, c);
      if (std::memcmp(&cut_a, &cut_b, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

/// The bin_frame lines at the search shapes (e2ebench *_tall frames plus
/// a candidate, 8000x9; eafe_wide, 1500x33): best-of-reps Fit of the
/// whole frame, and Extend of a binner fitted on all but the last column.
/// Returns false unless the extended binner equals the full Fit.
bool PrintBinFrameLines(uint64_t seed) {
  struct Shape {
    size_t rows;
    size_t features;
  };
  bool identical = true;
  for (const Shape& shape : {Shape{8000, 9}, Shape{1500, 33}}) {
    const data::Dataset dataset = MakeTable(
        data::TaskType::kClassification, shape.rows, shape.features, seed);
    data::DataFrame frame = dataset.features;
    EAFE_CHECK(frame.DropColumn(shape.features - 1).ok());
    ml::FeatureBinner frame_bins;
    EAFE_CHECK(frame_bins.Fit(frame).ok());

    constexpr size_t kReps = 20;
    ml::FeatureBinner full;
    double fit_seconds = 0.0;
    double extend_seconds = 0.0;
    for (size_t r = 0; r < kReps; ++r) {
      Stopwatch fit_timer;
      EAFE_CHECK(full.Fit(dataset.features).ok());
      const double fit = fit_timer.ElapsedSeconds();
      Stopwatch extend_timer;
      const ml::FeatureBinner extended =
          frame_bins.Extend(dataset.features).ValueOrDie();
      const double extend = extend_timer.ElapsedSeconds();
      if (r == 0 || fit < fit_seconds) fit_seconds = fit;
      if (r == 0 || extend < extend_seconds) extend_seconds = extend;
      identical = identical && SameBins(extended, full);
    }
    std::printf(
        "{\"bench\": \"bin_frame\", \"rows\": %zu, \"features\": %zu, "
        "\"mode\": \"fit\", \"seconds\": %.6f}\n",
        shape.rows, shape.features, fit_seconds);
    std::printf(
        "{\"bench\": \"bin_frame\", \"rows\": %zu, \"features\": %zu, "
        "\"mode\": \"extend\", \"seconds\": %.6f, "
        "\"speedup_vs_fit\": %.2f}\n",
        shape.rows, shape.features, extend_seconds,
        extend_seconds > 0.0 ? fit_seconds / extend_seconds : 0.0);
  }
  return identical;
}

/// Closing line of a grid run: the host it ran on (hardware threads, the
/// dispatched SIMD tier, the build type) and the run's wall clock.
void PrintHostLine(double seconds) {
  std::printf(
      "{\"bench\": \"host\", \"nproc\": %u, \"threads\": 1, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"seconds\": %.1f}\n",
      std::thread::hardware_concurrency(),
      simd::LevelName(simd::ActiveLevel()), EAFE_BENCH_BUILD_TYPE, seconds);
}

int RunGrid(bool full, uint64_t seed) {
  Stopwatch wall;
  struct Shape {
    size_t rows;
    size_t features;
  };
  std::vector<Shape> shapes = {{1000, 10}, {10000, 10}, {10000, 25}};
  if (full) shapes.push_back({50000, 25});
  for (data::TaskType task : {data::TaskType::kClassification,
                              data::TaskType::kRegression}) {
    for (const Shape& shape : shapes) {
      const data::Dataset dataset =
          MakeTable(task, shape.rows, shape.features, seed);
      const size_t reps = shape.rows <= 1000 ? 3 : 2;
      const FitResult exact =
          TimeFit(dataset, ml::SplitStrategy::kExact, reps);
      const FitResult histogram =
          TimeFit(dataset, ml::SplitStrategy::kHistogram, reps);
      PrintLine(dataset, shape.features, ml::SplitStrategy::kExact, exact,
                exact.seconds);
      PrintLine(dataset, shape.features, ml::SplitStrategy::kHistogram,
                histogram, exact.seconds);
    }
  }
  // Forest-level deltas: fit (shared frame codes vs per-tree
  // materialize-and-rebin) and predict (the flat walk over codes vs the
  // raw-double reference walk over the same trees, a bit-identical pair).
  for (data::TaskType task : {data::TaskType::kClassification,
                              data::TaskType::kRegression}) {
    for (const Shape& shape : shapes) {
      const data::Dataset dataset =
          MakeTable(task, shape.rows, shape.features, seed);
      const size_t reps = shape.rows <= 1000 ? 3 : 2;
      std::vector<double> shared_pred, per_tree_pred;
      const FitResult per_tree = TimeForestFit(
          dataset, /*share_binner=*/false, reps, &per_tree_pred);
      const FitResult shared =
          TimeForestFit(dataset, /*share_binner=*/true, reps, &shared_pred);
      PrintForestLine("forest_fit", dataset, shape.features, "per_tree",
                      "speedup_vs_per_tree", per_tree, per_tree.seconds);
      PrintForestLine("forest_fit", dataset, shape.features, "shared",
                      "speedup_vs_per_tree", shared, per_tree.seconds);

      const FitResult raw = TimeForestPredict(dataset, /*flat=*/false, reps);
      const FitResult flat = TimeForestPredict(dataset, /*flat=*/true, reps);
      PrintForestLine("forest_predict", dataset, shape.features, "double",
                      "speedup_vs_double", raw, raw.seconds);
      PrintForestLine("forest_predict", dataset, shape.features, "flat",
                      "speedup_vs_double", flat, raw.seconds);
    }
  }
  PrintWideForestFit(seed);
  EAFE_CHECK_MSG(PrintBinFrameLines(seed),
                 "extended binner differs from a full Fit");
  // Serving-engine deltas: flat batch predict after a full container
  // round trip vs the raw-double reference walk over the same trees.
  for (data::TaskType task : {data::TaskType::kClassification,
                              data::TaskType::kRegression}) {
    for (const Shape& shape : shapes) {
      const data::Dataset dataset =
          MakeTable(task, shape.rows, shape.features, seed);
      const size_t reps = shape.rows <= 1000 ? 3 : 2;
      const FlatPair pair =
          TimeFlatVsDouble(dataset, /*num_trees=*/50, reps);
      EAFE_CHECK_MSG(pair.identical,
                     "flat and raw-double predictions disagree");
      PrintForestLine("flat_predict", dataset, shape.features, "double",
                      "speedup_vs_double", pair.raw, pair.raw.seconds);
      PrintForestLine("flat_predict", dataset, shape.features, "flat",
                      "speedup_vs_double", pair.flat, pair.raw.seconds);
    }
  }
  // Booster fit/predict with the shared-binner forest as the cost
  // reference: speed_vs_forest > 1 means gbdt is the cheaper evaluator at
  // that shape (both run the shared histogram machinery, so the delta is
  // rounds-times-shallow-trees vs trees-times-depth-8).
  for (data::TaskType task : {data::TaskType::kClassification,
                              data::TaskType::kRegression}) {
    for (const Shape& shape : shapes) {
      const data::Dataset dataset =
          MakeTable(task, shape.rows, shape.features, seed);
      const size_t reps = shape.rows <= 1000 ? 3 : 2;
      const FitResult forest_fit =
          TimeForestFit(dataset, /*share_binner=*/true, reps);
      const FitResult gbdt_fit = TimeGbdtFit(dataset, reps);
      PrintForestLine("gbdt_fit", dataset, shape.features, "gbdt",
                      "speed_vs_forest", gbdt_fit, forest_fit.seconds);
      const FitResult forest_predict =
          TimeForestPredict(dataset, /*flat=*/true, reps);
      const FitResult gbdt_predict = TimeGbdtPredict(dataset, reps);
      PrintForestLine("gbdt_predict", dataset, shape.features, "gbdt",
                      "speed_vs_forest", gbdt_predict,
                      forest_predict.seconds);
    }
  }
  PrintHostLine(wall.ElapsedSeconds());
  return 0;
}

/// Fixed-shape regression gate: histogram must be meaningfully faster
/// than exact (the acceptance target is >= 3x; the gate asserts a
/// conservative 1.5x so shared CI hardware doesn't flake) and must score
/// within 0.02 of it on the training table.
int RunSmoke(uint64_t seed) {
  const data::Dataset dataset =
      MakeTable(data::TaskType::kClassification, 16384, 16, seed);
  const FitResult exact = TimeFit(dataset, ml::SplitStrategy::kExact, 2);
  const FitResult histogram =
      TimeFit(dataset, ml::SplitStrategy::kHistogram, 2);
  PrintLine(dataset, 16, ml::SplitStrategy::kExact, exact, exact.seconds);
  PrintLine(dataset, 16, ml::SplitStrategy::kHistogram, histogram,
            exact.seconds);
  const double speedup =
      histogram.seconds > 0.0 ? exact.seconds / histogram.seconds : 0.0;
  if (speedup < 1.5) {
    std::fprintf(stderr, "smoke FAILED: histogram speedup %.2fx < 1.5x\n",
                 speedup);
    return 1;
  }
  if (std::fabs(histogram.score - exact.score) > 0.02) {
    std::fprintf(stderr,
                 "smoke FAILED: |histogram score %.4f - exact score %.4f| "
                 "> 0.02\n",
                 histogram.score, exact.score);
    return 1;
  }

  // Forest gate: binner sharing must beat the per-tree reference on fit
  // (the acceptance target is >= 1.5x; the gate asserts a conservative
  // 1.2x so shared CI hardware doesn't flake) and score within tolerance
  // of it. The two fits are not bit-identical on continuous data — a
  // bootstrap's cut points differ from the full frame's — so equality is
  // asserted only for the flat-vs-double predict pair below, where it
  // holds for any data.
  const FitResult per_tree =
      TimeForestFit(dataset, /*share_binner=*/false, 2);
  const FitResult shared = TimeForestFit(dataset, /*share_binner=*/true, 2);
  PrintForestLine("forest_fit", dataset, 16, "per_tree",
                  "speedup_vs_per_tree", per_tree, per_tree.seconds);
  PrintForestLine("forest_fit", dataset, 16, "shared", "speedup_vs_per_tree",
                  shared, per_tree.seconds);
  PrintWideForestFit(seed);  // Reported, not gated.
  // Binning timings are reported; the gate is Extend == Fit, bit for bit.
  if (!PrintBinFrameLines(seed)) {
    std::fprintf(stderr,
                 "smoke FAILED: extended binner differs from a full Fit\n");
    return 1;
  }
  const double fit_speedup =
      shared.seconds > 0.0 ? per_tree.seconds / shared.seconds : 0.0;
  if (fit_speedup < 1.2) {
    std::fprintf(stderr,
                 "smoke FAILED: shared forest fit speedup %.2fx < 1.2x\n",
                 fit_speedup);
    return 1;
  }
  if (std::fabs(shared.score - per_tree.score) > 0.02) {
    std::fprintf(stderr,
                 "smoke FAILED: |shared score %.4f - per-tree score %.4f| "
                 "> 0.02\n",
                 shared.score, per_tree.score);
    return 1;
  }

  // The forest's predict is gated on bit-identity with the raw-double
  // reference walk over the same trees; its speed on a fresh frame at
  // the default 10 trees is reported, not gated.
  std::vector<double> raw_pred, flat_pred;
  const FitResult raw =
      TimeForestPredict(dataset, /*flat=*/false, 3, &raw_pred);
  const FitResult flat =
      TimeForestPredict(dataset, /*flat=*/true, 3, &flat_pred);
  PrintForestLine("forest_predict", dataset, 16, "double",
                  "speedup_vs_double", raw, raw.seconds);
  PrintForestLine("forest_predict", dataset, 16, "flat",
                  "speedup_vs_double", flat, raw.seconds);
  if (flat_pred != raw_pred) {
    std::fprintf(stderr,
                 "smoke FAILED: flat and raw-double predictions disagree\n");
    return 1;
  }
  const double predict_speedup =
      flat.seconds > 0.0 ? raw.seconds / flat.seconds : 0.0;

  // Serving gate: a full save→load→predict round trip must be
  // bit-identical to the raw-double reference walk over the same trees,
  // and faster than it by 1.35x on the traversal-heavy 50-tree batch.
  // The floor is 1.05x times the best lead a bin-coded pointer-tree walk
  // measured over the double walk (1.28x).
  const FlatPair flat_pair = TimeFlatVsDouble(dataset, /*num_trees=*/50, 3);
  PrintForestLine("flat_predict", dataset, 16, "double", "speedup_vs_double",
                  flat_pair.raw, flat_pair.raw.seconds);
  PrintForestLine("flat_predict", dataset, 16, "flat", "speedup_vs_double",
                  flat_pair.flat, flat_pair.raw.seconds);
  if (!flat_pair.identical) {
    std::fprintf(stderr,
                 "smoke FAILED: flat round-trip predictions disagree with "
                 "the raw-double walk\n");
    return 1;
  }
  const double flat_speedup = flat_pair.flat.seconds > 0.0
                                  ? flat_pair.raw.seconds /
                                        flat_pair.flat.seconds
                                  : 0.0;
  if (flat_speedup < 1.35) {
    std::fprintf(stderr,
                 "smoke FAILED: flat predict speedup %.2fx < 1.35x over "
                 "the raw-double walk\n",
                 flat_speedup);
    return 1;
  }

  // Booster gates are correctness-only (timing ratios are reported, not
  // gated, so shared CI hardware doesn't flake): a whole fit bins the
  // frame exactly once by counter, a refit is bit-identical, and the
  // training score clears the no-information 0.5 bar with margin.
  ml::FeatureBinner::ResetTotalFits();
  std::vector<double> gbdt_proba;
  const FitResult gbdt_first = TimeGbdtFit(dataset, 1, &gbdt_proba);
  if (ml::FeatureBinner::TotalFits() != 1) {
    std::fprintf(stderr,
                 "smoke FAILED: gbdt fit ran %zu binner fits, expected 1\n",
                 ml::FeatureBinner::TotalFits());
    return 1;
  }
  std::vector<double> gbdt_proba_refit;
  const FitResult gbdt = TimeGbdtFit(dataset, 1, &gbdt_proba_refit);
  if (gbdt_proba_refit != gbdt_proba) {
    std::fprintf(stderr,
                 "smoke FAILED: gbdt refit probabilities are not "
                 "bit-identical\n");
    return 1;
  }
  if (gbdt.score < 0.75) {
    std::fprintf(stderr, "smoke FAILED: gbdt training score %.4f < 0.75\n",
                 gbdt.score);
    return 1;
  }
  const double gbdt_seconds = std::min(gbdt_first.seconds, gbdt.seconds);
  const double gbdt_vs_forest =
      gbdt_seconds > 0.0 ? shared.seconds / gbdt_seconds : 0.0;
  PrintForestLine("gbdt_fit", dataset, 16, "gbdt", "speed_vs_forest", gbdt,
                  shared.seconds);

  std::fprintf(stderr,
               "smoke OK: tree %.2fx vs exact (score delta %.4f), forest "
               "fit %.2fx shared-vs-per-tree, predict %.2fx "
               "flat-vs-double, flat serve %.2fx vs double (round trip "
               "bit-identical), gbdt score %.4f at %.2fx forest-fit "
               "speed\n",
               speedup, std::fabs(histogram.score - exact.score),
               fit_speedup, predict_speedup, flat_speedup, gbdt.score,
               gbdt_vs_forest);
  return 0;
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::FlagParser flags;
  flags.AddBool("smoke", false,
                "single fixed shape; nonzero exit unless histogram is "
                "faster and scores within tolerance")
      .AddBool("full", false, "add a 50k-row shape to the grid")
      .AddInt("seed", 7, "random seed");
  const eafe::Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == eafe::StatusCode::kNotFound) return 0;  // --help.
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  // Single-thread timings: deltas reflect the algorithmic change (binner
  // sharing, bin-coded routing), not parallel fan-out.
  eafe::runtime::SetGlobalThreads(1);
  if (flags.GetBool("smoke")) return eafe::bench::RunSmoke(seed);
  return eafe::bench::RunGrid(flags.GetBool("full"), seed);
}
