// Reproduces Figure 9: how E-AFE's running-time advantage and score
// improvement over NFS change with dataset scale (sample count and
// feature count). The paper's claim: the advantage grows with scale,
// since the per-candidate evaluation that FPE skips gets more expensive.
//
// This harness also times the per-epoch candidate pipeline both ways —
// --pipeline=sync (inline oracle) and --pipeline=async (each candidate
// task runs on the thread pool while the caller keeps generating) — and
// reports the async speedup per scale point.
// The two executors are bit-identical by contract (DESIGN.md §12), so
// the score columns are mode-independent.
//
// --pipeline-smoke turns the harness into the CI gate used by
// tools/check.sh --suite release: one large synthetic point (n >= 10k)
// run under both modes, asserting bit-identical results and emitting a
// JSONL line (BENCH_pipeline.json schema, see tools/bench_schema_check):
//
//   {"bench": "pipeline_smoke", "samples": ..., "features": ...,
//    "threads": ..., "cpus": ..., "sync_seconds": ...,
//    "async_seconds": ..., "speedup": ..., "seconds": ...,
//    "identical": true}
//
// The wall-clock requirement (async <= sync) is only enforced when the
// machine has >= 4 hardware threads: with fewer cores there is no
// physical parallelism to win, and the gate would only measure noise.

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

/// Runs `method` under the given pipeline mode. Everything else about
/// the config is shared, so any result difference is an executor bug.
Result<afe::SearchResult> RunWithMode(const std::string& method,
                                      const BenchConfig& config,
                                      const fpe::FpeModel* fpe,
                                      const data::Dataset& dataset,
                                      afe::PipelineMode mode) {
  BenchConfig moded = config;
  moded.pipeline = mode;
  return MakeSearch(method, moded, fpe)->Run(dataset);
}

/// The equivalence contract of DESIGN.md §12: every result-bearing field
/// must match bit-for-bit (eval_cache_hits and timing are excluded —
/// concurrent same-signature evaluations may both miss the cache, and
/// wall clock is the quantity under test).
bool BitIdentical(const afe::SearchResult& a, const afe::SearchResult& b) {
  if (a.base_score != b.base_score || a.best_score != b.best_score ||
      a.search_score != b.search_score ||
      a.downstream_evaluations != b.downstream_evaluations ||
      a.features_generated != b.features_generated ||
      a.features_evaluated != b.features_evaluated ||
      a.features_kept != b.features_kept) {
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
                      "Score delta", "NFS time (s)", "E-AFE sync (s)",
                      "E-AFE async (s)", "Pipe speedup", "vs NFS"});
  for (const ScalePoint& point : points) {
    auto dataset = MakeScaleDataset(config, point);
    if (!dataset.ok()) continue;

    auto nfs = MakeSearch("NFS", config, nullptr)->Run(*dataset);
    const fpe::FpeModel* fpe = &bundle.model(hashing::MinHashScheme::kCcws);
    auto eafe_sync = RunWithMode("E-AFE", config, fpe, *dataset,
                                 afe::PipelineMode::kSync);
    auto eafe_async = RunWithMode("E-AFE", config, fpe, *dataset,
                                  afe::PipelineMode::kAsync);
    if (!nfs.ok() || !eafe_sync.ok() || !eafe_async.ok()) continue;
    if (!BitIdentical(*eafe_sync, *eafe_async)) {
      std::fprintf(stderr,
                   "pipeline equivalence violated at %zux%zu: sync and "
                   "async E-AFE results differ\n",
                   point.samples, point.features);
      std::exit(1);
    }
    table.AddRow(
        {std::to_string(point.samples), std::to_string(point.features),
         TablePrinter::Num(nfs->best_score),
         TablePrinter::Num(eafe_async->best_score),
         StrFormat("%+.3f", eafe_async->best_score - nfs->best_score),
         StrFormat("%.2f", nfs->total_seconds),
         StrFormat("%.2f", eafe_sync->total_seconds),
         StrFormat("%.2f", eafe_async->total_seconds),
         StrFormat("%.2fx", eafe_sync->total_seconds /
                                std::max(eafe_async->total_seconds, 1e-9)),
         StrFormat("%.2fx", nfs->total_seconds /
                                std::max(eafe_async->total_seconds, 1e-9))});
  }
  table.Print();
  std::printf(
      "\nShape check: the NFS-relative speedup grows with the sample and "
      "feature count; the pipeline speedup (sync / async) approaches the "
      "worker count once per-candidate evaluations dominate the epoch.\n");
}

/// CI smoke: one n>=10k point, both modes, bit-identity asserted, one
/// JSONL line appended to --out. Returns the process exit code.
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
  Stopwatch sync_watch;
  auto sync_result = RunWithMode("NFS", config, nullptr, *dataset,
                                 afe::PipelineMode::kSync);
  const double sync_seconds = sync_watch.ElapsedSeconds();
  Stopwatch async_watch;
  auto async_result = RunWithMode("NFS", config, nullptr, *dataset,
                                  afe::PipelineMode::kAsync);
  const double async_seconds = async_watch.ElapsedSeconds();
  if (!sync_result.ok() || !async_result.ok()) {
    std::fprintf(stderr, "smoke run failed: %s / %s\n",
                 sync_result.status().ToString().c_str(),
                 async_result.status().ToString().c_str());
    return 1;
  }
  const bool identical = BitIdentical(*sync_result, *async_result);
  const double speedup = sync_seconds / std::max(async_seconds, 1e-9);
  const unsigned cpus = std::thread::hardware_concurrency();

  const std::string line = StrFormat(
      "{\"bench\": \"pipeline_smoke\", \"samples\": %zu, "
      "\"features\": %zu, \"threads\": %zu, \"cpus\": %u, "
      "\"sync_seconds\": %.3f, \"async_seconds\": %.3f, "
      "\"speedup\": %.3f, \"seconds\": %.3f, \"identical\": %s}",
      point.samples, point.features, config.threads, cpus, sync_seconds,
      async_seconds, speedup, async_seconds, identical ? "true" : "false");
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
                 "pipeline smoke FAILED: sync and async results differ\n");
    return 1;
  }
  if (cpus >= 4 && config.threads >= 4 &&
      async_seconds > sync_seconds * 1.05) {
    std::fprintf(stderr,
                 "pipeline smoke FAILED: async slower than sync "
                 "(%.3fs vs %.3fs) on a %u-cpu machine\n",
                 async_seconds, sync_seconds, cpus);
    return 1;
  }
  if (cpus < 4) {
    std::printf(
        "note: %u hardware thread(s) — wall-clock gate skipped (no "
        "physical parallelism to measure), bit-identity enforced.\n",
        cpus);
  }
  std::printf("pipeline smoke OK (bit-identical, %.2fx)\n", speedup);
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser parser;
  AddStandardFlags(&parser);
  parser.AddBool("pipeline-smoke", false,
                 "CI gate: one n>=10k point, sync vs async, bit-identity "
                 "asserted, JSONL appended to --out");
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
