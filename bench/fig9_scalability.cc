// Reproduces Figure 9: how E-AFE's running-time advantage and score
// improvement over NFS change with dataset scale (sample count and
// feature count). The paper's claim: the advantage grows with scale,
// since the per-candidate evaluation that FPE skips gets more expensive.
//
// --pipeline-smoke turns the harness into the CI gate used by
// tools/check.sh --suite release: one large synthetic point (n >= 10k)
// searched serially (--threads=1, every task inline) and on the
// --threads pool, asserting bit-identical results and emitting a JSONL
// line (BENCH_pipeline.json schema, see tools/bench_schema_check):
//
//   {"bench": "pipeline_smoke", "samples": ..., "features": ...,
//    "threads": ..., "cpus": ..., "serial_seconds": ...,
//    "pooled_seconds": ..., "speedup": ..., "seconds": ...,
//    "identical": true}
//
// Each side runs untimed warm-up searches until at least 1.5 s of them
// have run, then keeps the best of three timed runs; one comparison
// decides. The wall-clock floor (serial / pooled >= 1.8) is only
// enforced at --threads >= 4 on a machine with >= 4 hardware threads:
// with fewer cores there is no physical parallelism to win, and the gate
// would only measure noise.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "bench/bench_util.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "runtime/thread_pool.h"

namespace eafe::bench {
namespace {

struct ScalePoint {
  size_t samples;
  size_t features;
};

Result<data::Dataset> MakeScaleDataset(const BenchConfig& config,
                                       const ScalePoint& point) {
  data::SyntheticSpec spec;
  spec.name = StrFormat("scale_%zux%zu", point.samples, point.features);
  spec.task = data::TaskType::kClassification;
  spec.num_samples = point.samples;
  spec.num_features = point.features;
  spec.num_informative = std::max<size_t>(point.features / 3, 2);
  spec.num_interactions = 3;
  spec.noise = 0.25;
  spec.seed = config.seed + point.samples * 131 + point.features;
  return data::MakeSynthetic(spec);
}

/// The equivalence contract of DESIGN.md §12: every result-bearing field
/// must match bit-for-bit at any --threads (timing is excluded: wall
/// clock is the quantity under test).
bool BitIdentical(const afe::SearchResult& a, const afe::SearchResult& b) {
  if (a.base_score != b.base_score || a.best_score != b.best_score ||
      a.search_score != b.search_score ||
      a.downstream_evaluations != b.downstream_evaluations ||
      a.features_generated != b.features_generated ||
      a.features_evaluated != b.features_evaluated ||
      a.features_kept != b.features_kept ||
      a.eval_cache_hits != b.eval_cache_hits) {
    return false;
  }
  if (a.curve.size() != b.curve.size()) return false;
  for (size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].best_score != b.curve[i].best_score ||
        a.curve[i].cumulative_evaluations !=
            b.curve[i].cumulative_evaluations) {
      return false;
    }
  }
  if (a.best_dataset.num_features() != b.best_dataset.num_features()) {
    return false;
  }
  for (size_t c = 0; c < a.best_dataset.num_features(); ++c) {
    const data::Column& ca = a.best_dataset.features.columns()[c];
    const data::Column& cb = b.best_dataset.features.columns()[c];
    if (ca.name() != cb.name() || ca.values() != cb.values()) return false;
  }
  return true;
}

void RunFigure(const BenchConfig& config) {
  std::printf(
      "Figure 9: time and score improvement vs. dataset scale\n\n");
  const FpeBundle bundle =
      PretrainFpeBundle(config, {hashing::MinHashScheme::kCcws});

  std::vector<ScalePoint> points;
  if (config.full) {
    points = {{250, 8}, {500, 8}, {1000, 8}, {2000, 8},
              {500, 8}, {500, 16}, {500, 24}, {500, 32}};
  } else {
    points = {{150, 6}, {300, 6}, {600, 6}, {300, 6}, {300, 12}, {300, 18}};
  }

  TablePrinter table({"Samples", "Features", "NFS score", "E-AFE score",
                      "Score delta", "NFS time (s)", "E-AFE time (s)",
                      "vs NFS"});
  for (const ScalePoint& point : points) {
    auto dataset = MakeScaleDataset(config, point);
    if (!dataset.ok()) continue;

    auto nfs = MakeSearch("NFS", config, nullptr)->Run(*dataset);
    auto eafe = MakeSearch("E-AFE", config,
                           &bundle.model(hashing::MinHashScheme::kCcws))
                    ->Run(*dataset);
    if (!nfs.ok() || !eafe.ok()) continue;
    table.AddRow(
        {std::to_string(point.samples), std::to_string(point.features),
         TablePrinter::Num(nfs->best_score),
         TablePrinter::Num(eafe->best_score),
         StrFormat("%+.3f", eafe->best_score - nfs->best_score),
         StrFormat("%.2f", nfs->total_seconds),
         StrFormat("%.2f", eafe->total_seconds),
         StrFormat("%.2fx", nfs->total_seconds /
                                std::max(eafe->total_seconds, 1e-9))});
  }
  table.Print();
  std::printf(
      "\nShape check: the NFS-relative speedup grows with the sample and "
      "feature count.\n");
}

/// Best-of-three wall clock of the smoke's NFS search at `threads`;
/// `result` gets the last run's result. Untimed warm-up runs go first,
/// until at least 1.5 s of them have run: on a 4-vCPU guest that sat
/// idle, the first ~1.5 s of pooled work ran at about the serial speed.
Result<double> BestSearchSeconds(const BenchConfig& config,
                                 const data::Dataset& dataset, size_t threads,
                                 afe::SearchResult* result) {
  constexpr double kWarmUpSeconds = 1.5;
  constexpr int kTimedRuns = 3;
  runtime::SetGlobalThreads(threads);
  const Stopwatch warm_up;
  do {
    EAFE_ASSIGN_OR_RETURN(*result,
                          MakeSearch("NFS", config, nullptr)->Run(dataset));
  } while (warm_up.ElapsedSeconds() < kWarmUpSeconds);
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < kTimedRuns; ++run) {
    Stopwatch watch;
    EAFE_ASSIGN_OR_RETURN(*result,
                          MakeSearch("NFS", config, nullptr)->Run(dataset));
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// CI smoke: one n>=10k point, serial vs pooled, bit-identity asserted,
/// one JSONL line appended to --out. Returns the process exit code.
int RunPipelineSmoke(BenchConfig config, const std::string& out_path) {
  // A large-sample point makes the eval stage dominate; trimmed budgets
  // keep the gate affordable on the CI box.
  config.epochs = 2;
  config.steps_per_agent = 2;
  config.cv_folds = 3;
  config.rf_trees = 4;
  config.rf_max_depth = 4;
  const ScalePoint point{10000, 6};
  auto dataset = MakeScaleDataset(config, point);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // NFS evaluates every generated candidate — the heaviest per-epoch
  // pipeline load of all methods, and no FPE pretraining cost.
  constexpr double kMinSpeedup = 1.8;
  const unsigned cpus = std::thread::hardware_concurrency();
  const bool gated = cpus >= 4 && config.threads >= 4;
  afe::SearchResult serial_result;
  afe::SearchResult pooled_result;
  auto serial = BestSearchSeconds(config, *dataset, 1, &serial_result);
  auto pooled =
      BestSearchSeconds(config, *dataset, config.threads, &pooled_result);
  if (!serial.ok() || !pooled.ok()) {
    std::fprintf(stderr, "smoke run failed: %s / %s\n",
                 serial.status().ToString().c_str(),
                 pooled.status().ToString().c_str());
    return 1;
  }
  const double serial_seconds = *serial;
  const double pooled_seconds = *pooled;
  const double speedup = serial_seconds / std::max(pooled_seconds, 1e-9);
  const bool identical = BitIdentical(serial_result, pooled_result);

  const std::string line = StrFormat(
      "{\"bench\": \"pipeline_smoke\", \"samples\": %zu, "
      "\"features\": %zu, \"threads\": %zu, \"cpus\": %u, "
      "\"serial_seconds\": %.3f, \"pooled_seconds\": %.3f, "
      "\"speedup\": %.3f, \"seconds\": %.3f, \"identical\": %s}",
      point.samples, point.features, config.threads, cpus, serial_seconds,
      pooled_seconds, speedup, pooled_seconds, identical ? "true" : "false");
  std::printf("%s\n", line.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << line << "\n";
  }

  if (!identical) {
    std::fprintf(stderr,
                 "pipeline smoke FAILED: serial and pooled results differ\n");
    return 1;
  }
  if (gated && speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "pipeline smoke FAILED: pooled search only %.2fx the serial "
                 "one (%.3fs vs %.3fs) at %zu threads on a %u-cpu machine; "
                 "the floor is %.1fx\n",
                 speedup, pooled_seconds, serial_seconds, config.threads,
                 cpus, kMinSpeedup);
    return 1;
  }
  if (!gated) {
    std::printf(
        "note: %u hardware thread(s), %zu pool thread(s) — wall-clock "
        "gate skipped (it needs >= 4 of each), bit-identity enforced.\n",
        cpus, config.threads);
  }
  std::printf("pipeline smoke OK (bit-identical, %.2fx)\n", speedup);
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser parser;
  AddStandardFlags(&parser);
  parser.AddBool("pipeline-smoke", false,
                 "CI gate: one n>=10k point, --threads 1 vs --threads N, "
                 "bit-identity asserted, JSONL appended to --out");
  parser.AddString("out", "",
                   "append the smoke JSONL line to this file "
                   "(BENCH_pipeline.json schema)");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;  // --help.
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage(argv[0]).c_str());
    return 1;
  }
  const BenchConfig config = ConfigFromFlags(parser);
  if (parser.GetBool("pipeline-smoke")) {
    return RunPipelineSmoke(config, parser.GetString("out"));
  }
  RunFigure(config);
  return 0;
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) { return eafe::bench::Main(argc, argv); }
