// Reproduces Table I: time profile of one NFS epoch on four datasets —
// nearly all time goes to evaluating new features, almost none to
// generating them. This observation motivates the whole paper.
//
// Evaluation time is summed over the pipeline's eval workers, so it is
// compute, not wall clock: "Eval %" is its share of generation +
// evaluation compute, and "Eval worker-s/s" is eval worker-seconds per
// wall second (above 1 when workers overlap), deliberately a ratio and
// never a percentage of the wall clock.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/string_util.h"
#include "core/table_printer.h"

namespace eafe::bench {
namespace {

void Run(const BenchConfig& config) {
  std::printf(
      "Table I: one NFS epoch — generation vs. evaluation time\n"
      "(paper: ~0.1%% generation, ~90%% evaluation of total)\n"
      "Eval %% = evaluation share of generation + evaluation compute; "
      "Eval worker-s/s = evaluation worker-seconds per wall second\n\n");
  TablePrinter table({"Dataset", "Instances\\Features", "New Features",
                      "Generation Time", "Eval. New Features Time",
                      "Total Time", "Eval %", "Eval worker-s/s"});
  for (const data::DatasetInfo& info : data::TableOneDatasets()) {
    BenchConfig one_epoch = config;
    one_epoch.epochs = 1;
    const data::Dataset dataset = Materialize(info, one_epoch);
    auto search = MakeSearch("NFS", one_epoch, nullptr);
    auto result = search->Run(dataset);
    if (!result.ok()) {
      std::fprintf(stderr, "NFS failed on %s: %s\n", info.name.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    const double compute =
        result->generation_seconds + result->evaluation_seconds;
    table.AddRow({info.name,
                  StrFormat("%zu\\%zu", dataset.num_rows(),
                            dataset.num_features()),
                  std::to_string(result->features_generated),
                  StrFormat("%.1fms", result->generation_seconds * 1e3),
                  StrFormat("%.2fs", result->evaluation_seconds),
                  StrFormat("%.2fs", result->total_seconds),
                  StrFormat("%.1f%%",
                            compute > 0.0
                                ? 100.0 * result->evaluation_seconds / compute
                                : 0.0),
                  StrFormat("%.2f", result->total_seconds > 0.0
                                        ? result->evaluation_seconds /
                                              result->total_seconds
                                        : 0.0)});
  }
  table.Print();
  std::printf(
      "\nShape check: evaluation dominates total time; generation is "
      "orders of magnitude cheaper.\n");
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::bench::Run(eafe::bench::ParseStandardFlags(argc, argv));
  return 0;
}
