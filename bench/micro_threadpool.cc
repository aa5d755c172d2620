// Micro-benchmark for the concurrent evaluation runtime: candidate
// evaluations per second through EvalService::ScoreDataset at 1/2/4/8
// worker threads, plus the evaluation-memo hit rate on a repeated workload.
// Each candidate is scored the way the search pipeline's eval step does
// it (BuildCandidateDataset, then ScoreDataset on one shared service),
// fanned out by ParallelFor over an explicit pool. Emits one JSON line
// per configuration so the numbers are machine-readable:
//
//   {"threads": 4, "phase": "cold", "candidates": 48, "seconds": ...,
//    "evals_per_sec": ..., "cache_hit_rate": 0.0, "speedup_vs_serial": ...}
//
// The "cold" phase scores a batch of unique candidates (pure fan-out,
// every score is a real model fit); the "warm" phase replays the same
// batch (pure memo hits, no fits). Speedups are relative to the threads=1
// cold pass. On a single-core machine the fan-out speedup is ~1x by
// construction — the memo win in the warm phase is hardware-independent.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "afe/eval_service.h"
#include "afe/feature_space.h"
#include "afe/search.h"
#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/stopwatch.h"
#include "runtime/thread_pool.h"

namespace eafe::bench {
namespace {

std::vector<afe::SpaceFeature> MakeCandidates(const afe::FeatureSpace& space,
                                              size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<afe::SpaceFeature> candidates;
  std::unordered_set<std::string> names;
  while (candidates.size() < count) {
    const size_t group = rng.UniformInt(space.num_groups());
    const afe::FeatureSpace::Action action =
        space.SampleRandomAction(group, &rng);
    auto candidate = space.GenerateCandidate(action);
    if (!candidate.ok()) continue;
    if (!names.insert(candidate->column.name()).second) continue;
    candidates.push_back(std::move(candidate).ValueOrDie());
  }
  return candidates;
}

struct PhaseResult {
  double seconds = 0.0;
  double hit_rate = 0.0;
};

PhaseResult TimeBatch(runtime::ThreadPool* pool, afe::EvalService* service,
                      const afe::FeatureSpace& space,
                      const std::vector<afe::SpaceFeature>& candidates) {
  const size_t requests_before = service->requests();
  const size_t hits_before = service->cache_hits();
  std::vector<Status> statuses(candidates.size());
  Stopwatch timer;
  runtime::ParallelFor(pool, candidates.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto dataset = afe::BuildCandidateDataset(space, candidates[i]);
      if (!dataset.ok()) {
        statuses[i] = dataset.status();
        continue;
      }
      auto score = service->ScoreDataset(*dataset);
      if (!score.ok()) statuses[i] = score.status();
    }
  });
  PhaseResult result;
  result.seconds = timer.ElapsedSeconds();
  for (const Status& status : statuses) {
    if (!status.ok()) {
      std::fprintf(stderr, "batch failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  const size_t requests = service->requests() - requests_before;
  const size_t hits = service->cache_hits() - hits_before;
  result.hit_rate =
      requests > 0 ? static_cast<double>(hits) / static_cast<double>(requests)
                   : 0.0;
  return result;
}

void PrintLine(size_t threads, const char* phase, size_t candidates,
               const PhaseResult& result, double serial_cold_seconds) {
  std::printf(
      "{\"threads\": %zu, \"phase\": \"%s\", \"candidates\": %zu, "
      "\"seconds\": %.6f, \"evals_per_sec\": %.2f, "
      "\"cache_hit_rate\": %.4f, \"speedup_vs_serial\": %.2f}\n",
      threads, phase, candidates, result.seconds,
      result.seconds > 0.0 ? static_cast<double>(candidates) / result.seconds
                           : 0.0,
      result.hit_rate,
      result.seconds > 0.0 ? serial_cold_seconds / result.seconds : 0.0);
}

void Run(const BenchConfig& config) {
  const data::Dataset dataset =
      Materialize(SelectDatasets(config).front(), config);
  const afe::FeatureSpace space(dataset, {});
  const size_t batch_size = config.full ? 128 : 48;
  const std::vector<afe::SpaceFeature> candidates =
      MakeCandidates(space, batch_size, config.seed + 17);
  const ml::EvaluatorOptions evaluator_options = config.EvaluatorOptions();

  std::fprintf(stderr,
               "micro_threadpool: %s (%zux%zu), batch of %zu candidates\n",
               dataset.name.c_str(), dataset.features.num_rows(),
               dataset.features.num_columns(), batch_size);

  double serial_cold_seconds = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    // An explicit pool per configuration keeps the sweep independent of
    // the global --threads setting.
    std::unique_ptr<runtime::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(threads);

    ml::TaskEvaluator evaluator(evaluator_options);
    afe::EvalService service(&evaluator);

    const PhaseResult cold =
        TimeBatch(pool.get(), &service, space, candidates);
    if (threads == 1) serial_cold_seconds = cold.seconds;
    PrintLine(threads, "cold", batch_size, cold, serial_cold_seconds);

    const PhaseResult warm =
        TimeBatch(pool.get(), &service, space, candidates);
    PrintLine(threads, "warm", batch_size, warm, serial_cold_seconds);
  }
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::bench::Run(eafe::bench::ParseStandardFlags(argc, argv));
  return 0;
}
