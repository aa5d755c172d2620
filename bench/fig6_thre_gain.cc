// Reproduces Figure 6: the distribution of leave-one-out score gains on
// the public datasets and how the label threshold `thre` divides it into
// positive/negative feature-validness labels (with the resulting recall
// of the FPE classifier per threshold).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "fpe/trainer.h"

namespace eafe::bench {
namespace {

void Run(const BenchConfig& config) {
  std::printf(
      "Figure 6: thre vs. score-gain labels on the public datasets\n\n");
  // Label once at thre = 0 (gains are threshold-independent).
  const auto public_datasets = data::MakePublicCollection(
      config.public_datasets, 141.0 / 239.0, config.seed + 99);
  ml::TaskEvaluator evaluator(config.EvaluatorOptions());
  auto labeled =
      fpe::LabelFeatureCollection(public_datasets, evaluator, 0.0);
  if (!labeled.ok()) {
    std::fprintf(stderr, "labeling failed: %s\n",
                 labeled.status().ToString().c_str());
    return;
  }

  // Gain histogram.
  std::printf("Score-gain histogram (%zu features):\n", labeled->size());
  const std::vector<double> edges = {-0.10, -0.05, -0.02, -0.01, 0.0,
                                     0.01,  0.02,  0.05,  0.10};
  std::vector<size_t> counts(edges.size() + 1, 0);
  for (const auto& f : *labeled) {
    size_t bucket = 0;
    while (bucket < edges.size() && f.score_gain >= edges[bucket]) {
      ++bucket;
    }
    ++counts[bucket];
  }
  for (size_t b = 0; b <= edges.size(); ++b) {
    std::string range =
        b == 0 ? StrFormat("(-inf, %.2f)", edges[0])
        : b == edges.size()
            ? StrFormat("[%.2f, +inf)", edges.back())
            : StrFormat("[%.2f, %.2f)", edges[b - 1], edges[b]);
    std::printf("  %-16s %4zu  %s\n", range.c_str(), counts[b],
                std::string(counts[b], '#').c_str());
  }

  // Positives and trained-classifier recall per threshold.
  std::printf("\nthre vs. positive rate and FPE validation recall:\n");
  TablePrinter table({"thre", "Positives", "Positive %", "Recall",
                      "Precision"});
  for (double thre : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    fpe::RelabelWithThreshold(&*labeled, thre);
    size_t positives = 0;
    for (const auto& f : *labeled) positives += f.label;
    // Train/validate a classifier at this threshold on a fixed split.
    const size_t validation = labeled->size() / 3;
    std::vector<fpe::LabeledFeature> train(
        labeled->begin() + static_cast<ptrdiff_t>(validation),
        labeled->end());
    std::vector<fpe::LabeledFeature> valid(
        labeled->begin(),
        labeled->begin() + static_cast<ptrdiff_t>(validation));
    std::string recall = "n/a";
    std::string precision = "n/a";
    fpe::FpeModel model;
    const auto metrics = fpe::EvaluateCandidate(
        train, valid, hashing::MinHashScheme::kCcws, 48, config.seed,
        &model);
    if (metrics.ok()) {
      recall = TablePrinter::Num(metrics->recall);
      precision = TablePrinter::Num(metrics->precision);
    }
    table.AddRow({StrFormat("%.3f", thre), std::to_string(positives),
                  StrFormat("%.1f%%", 100.0 * static_cast<double>(positives) /
                                          static_cast<double>(labeled->size())),
                  recall, precision});
  }
  table.Print();
  std::printf(
      "\nShape check: smaller thre -> more positive labels; thre shifts "
      "the precision/recall balance of the trained classifier (the paper "
      "selects thre=0.01 as the trade-off point).\n");
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::bench::Run(eafe::bench::ParseStandardFlags(argc, argv));
  return 0;
}
