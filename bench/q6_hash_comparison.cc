// Answers the paper's Q6 — "Why MinHash?" — with a head-to-head
// comparison of every compressor backend on the two axes that matter:
//   (a) FPE classifier quality (validation recall/precision) when trained
//       on that backend's signatures, over a shared label pool;
//   (b) compression throughput (the per-candidate filtering cost).
// Backends (hashing::AllMinHashSchemes): the weighted CWS schemes of
// Table III (ICWS, CCWS, PCWS; LICWS selects ICWS's rows, so it has no
// row of its own), plain MinHash, and the exact-quantile sketch (LFE's
// representation, cited in related work) as the non-hashing baseline.
// The compress time is the FPE's compressor: d = 48 consistent-sample
// slots plus 48 uniform slots.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/stopwatch.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "fpe/trainer.h"

namespace eafe::bench {
namespace {

void Run(const BenchConfig& config) {
  std::printf("Q6: compressor backends compared on a shared label pool\n\n");
  const FpeBundle bundle =
      PretrainFpeBundle(config, {hashing::MinHashScheme::kCcws});

  // Throughput probe input: one mid-size feature.
  Rng rng(config.seed);
  std::vector<double> probe(1000);
  for (double& v : probe) v = rng.Normal();

  TablePrinter table({"Backend", "Recall", "Precision", "F1",
                      "Compress time (us/feature)"});
  for (hashing::MinHashScheme scheme : hashing::AllMinHashSchemes()) {
    fpe::FpeModel model;
    const auto metrics = fpe::EvaluateCandidate(
        bundle.base.training_features, bundle.base.validation_features,
        scheme, 48, config.seed, &model);
    std::string recall = "n/a", precision = "n/a", f1 = "n/a";
    if (metrics.ok()) {
      recall = TablePrinter::Num(metrics->recall);
      precision = TablePrinter::Num(metrics->precision);
      f1 = TablePrinter::Num(metrics->f1);
    }
    // Time the raw compressor (not the model) for the backend.
    hashing::CompressorOptions compressor_options;
    compressor_options.scheme = scheme;
    compressor_options.dimension = 48;
    hashing::SampleCompressor compressor(compressor_options);
    Stopwatch watch;
    constexpr int kRepeats = 20;
    for (int r = 0; r < kRepeats; ++r) {
      auto signature = compressor.Compress(probe);
      EAFE_CHECK(signature.ok());
    }
    const double micros = watch.ElapsedSeconds() * 1e6 / kRepeats;
    table.AddRow({hashing::MinHashSchemeToString(scheme), recall,
                  precision, f1, TablePrinter::Num(micros, 0)});
  }
  table.Print();
  std::printf(
      "\nReading (the paper's Q6 finding): the weighted MinHash variants "
      "perform alike; the hashing property the paper values — similarity "
      "preservation across datasets at bounded cost — comes without a "
      "classifier-quality penalty relative to the exact quantile "
      "baseline.\n");
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::bench::Run(eafe::bench::ParseStandardFlags(argc, argv));
  return 0;
}
