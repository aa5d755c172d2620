// Reproduces Table VI: one-sided significance tests of E-AFE's
// improvement over each baseline in (a) downstream score and (b) running
// time, paired per dataset. The paper reports time improvements as
// strongly significant and the score improvement over NFS as not
// significant (both methods use the same downstream cross-validation).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/stats.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "core/table_printer.h"

namespace eafe::bench {
namespace {

void Run(BenchConfig config) {
  // Significance needs enough paired samples.
  if (config.num_datasets < 10 && !config.full) config.num_datasets = 10;
  std::printf(
      "Table VI: p-values of E-AFE improvement over baselines "
      "(%zu datasets)\n\n",
      SelectDatasets(config).size());
  const FpeBundle bundle =
      PretrainFpeBundle(config, {hashing::MinHashScheme::kCcws});

  // A dataset enters the paired tests only when every method (the three
  // searches and RTDL_N) ran on it, so each baseline's vectors pair the
  // same datasets as E-AFE's.
  constexpr size_t kMethods = 4;
  std::map<std::string, std::vector<double>> scores;
  std::map<std::string, std::vector<double>> times;
  size_t skipped = 0;
  for (const data::DatasetInfo& info : SelectDatasets(config)) {
    const data::Dataset dataset = Materialize(info, config);
    std::map<std::string, std::pair<double, double>> runs;  // score, time
    for (const std::string method : {"FS_R", "NFS", "E-AFE"}) {
      auto search = MakeSearch(
          method, config,
          &bundle.model(hashing::MinHashScheme::kCcws));
      auto result = search->Run(dataset);
      if (result.ok()) {
        runs[method] = {result->best_score, result->total_seconds};
      }
    }
    // RTDL_N baseline: representation + RF score; its "time" is the
    // network training + scoring wall clock.
    Stopwatch watch;
    const auto dl_score = ScoreResNetRf(dataset, config);
    if (dl_score.ok()) runs["RTDL_N"] = {*dl_score, watch.ElapsedSeconds()};
    if (runs.size() < kMethods) {
      ++skipped;
      continue;
    }
    for (const auto& [method, run] : runs) {
      scores[method].push_back(run.first);
      times[method].push_back(run.second);
    }
  }
  if (skipped > 0) {
    std::printf("(%zu datasets skipped: a method failed on them)\n\n",
                skipped);
  }

  // Verdicts at this level, from the p-values the table prints.
  constexpr double kAlpha = 0.05;
  const auto verdict = [&](const Result<stats::TestResult>& test) {
    if (!test.ok()) return std::string("n/a");
    return StrFormat("%s (paired t, p = %.2e)",
                     test->p_value < kAlpha ? "significant"
                                            : "not significant",
                     test->p_value);
  };
  TablePrinter table({"Baseline", "Perf. p-value (t)", "Perf. p (Wilcoxon)",
                      "Time p-value (t)", "Mean score delta",
                      "Mean time ratio"});
  std::vector<std::string> verdicts;
  const std::vector<double>& eafe_scores = scores["E-AFE"];
  for (const std::string& baseline :
       {std::string("FS_R"), std::string("RTDL_N"), std::string("NFS")}) {
    const std::vector<double>& base_scores = scores[baseline];
    if (base_scores.size() < 3) {
      table.AddRow({baseline, "n/a", "n/a", "n/a", "n/a", "n/a"});
      verdicts.push_back(baseline + ": n/a (fewer than 3 paired datasets)");
      continue;
    }
    const auto perf_t = stats::PairedTTest(base_scores, eafe_scores);
    const auto perf_w = stats::WilcoxonSignedRank(base_scores, eafe_scores);
    // Time improvement: baseline slower, so test time(E-AFE) < baseline.
    const auto time_t = stats::PairedTTest(times["E-AFE"], times[baseline]);
    double delta = stats::Mean(eafe_scores) - stats::Mean(base_scores);
    double ratio = stats::Mean(times[baseline]) /
                   std::max(stats::Mean(times["E-AFE"]), 1e-9);
    table.AddRow(
        {baseline,
         perf_t.ok() ? StrFormat("%.2e", perf_t->p_value) : "n/a",
         perf_w.ok() ? StrFormat("%.2e", perf_w->p_value) : "n/a",
         time_t.ok() ? StrFormat("%.2e", time_t->p_value) : "n/a",
         StrFormat("%+.3f", delta), StrFormat("%.2fx", ratio)});
    verdicts.push_back(baseline + ": time improvement " + verdict(time_t) +
                       "; score improvement " + verdict(perf_t));
  }
  table.Print();
  std::printf("\nAt alpha = %.2f (one-sided; the paper reports every time "
              "improvement as significant and the score improvement over "
              "NFS as not):\n",
              kAlpha);
  for (const std::string& line : verdicts) {
    std::printf("  %s\n", line.c_str());
  }
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::bench::Run(eafe::bench::ParseStandardFlags(argc, argv));
  return 0;
}
