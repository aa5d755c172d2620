// FPE input-representation ablation (extension beyond the paper): the
// paper feeds the classifier MinHash signatures; the related work
// (ExploreKit, LFE, auto-sklearn) uses hand-crafted statistical
// meta-features. This bench trains the FPE classifier under each input
// representation x classifier kind on a shared label pool and reports
// validation quality plus candidate enrichment on an unseen target
// (the metric that actually matters for the search).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "fpe/fpe_model.h"

namespace eafe::bench {
namespace {

const char* InputName(fpe::FpeModel::InputRepresentation input) {
  switch (input) {
    case fpe::FpeModel::InputRepresentation::kSignature:
      return "signature";
    case fpe::FpeModel::InputRepresentation::kMetaFeatures:
      return "meta";
    case fpe::FpeModel::InputRepresentation::kCombined:
      return "combined";
  }
  return "?";
}

const char* ClassifierName(fpe::FpeModel::ClassifierKind kind) {
  switch (kind) {
    case fpe::FpeModel::ClassifierKind::kLogistic:
      return "logistic";
    case fpe::FpeModel::ClassifierKind::kRandomForest:
      return "rf";
  }
  return "?";
}

void Run(const BenchConfig& config) {
  std::printf(
      "FPE input-representation x classifier ablation "
      "(extension; paper = signature + logistic-family)\n\n");
  const FpeBundle bundle =
      PretrainFpeBundle(config, {hashing::MinHashScheme::kCcws});

  // Enrichment probe: labeled random candidates pooled over several
  // unseen targets (a single dataset can have too few improvers for the
  // ratio to mean anything).
  ml::TaskEvaluator evaluator(config.EvaluatorOptions());
  std::vector<fpe::LabeledFeature> candidates;
  for (const char* name : {"PimaIndian", "German Credit", "credit-a"}) {
    const data::Dataset target =
        Materialize(data::FindDatasetInfo(name).ValueOrDie(), config);
    auto labeled = afe::LabelGeneratedCandidates(
        target, evaluator, 0.003, config.full ? 250 : 100, 2,
        config.seed + 3);
    if (!labeled.ok()) continue;
    for (auto& c : *labeled) candidates.push_back(std::move(c));
  }
  size_t base_improvers = 0;
  for (const auto& c : candidates) base_improvers += c.label;
  const double base_rate = static_cast<double>(base_improvers) /
                           static_cast<double>(candidates.size());
  std::printf("probe: %zu pooled candidates, %.1f%% improvers\n\n",
              candidates.size(), 100.0 * base_rate);

  TablePrinter table({"Input", "Classifier", "Valid recall",
                      "Valid precision", "Pass rate", "Enrichment"});
  for (auto input : {fpe::FpeModel::InputRepresentation::kSignature,
                     fpe::FpeModel::InputRepresentation::kMetaFeatures,
                     fpe::FpeModel::InputRepresentation::kCombined}) {
    for (auto kind : {fpe::FpeModel::ClassifierKind::kLogistic,
                      fpe::FpeModel::ClassifierKind::kRandomForest}) {
      fpe::FpeModel::Options options;
      options.compressor.scheme = hashing::MinHashScheme::kCcws;
      options.compressor.dimension = 48;
      options.classifier = kind;
      options.input = input;
      options.seed = config.seed + 31;
      fpe::FpeModel model(options);
      if (!model.Train(bundle.base.training_features).ok()) {
        table.AddRow({InputName(input), ClassifierName(kind), "fail", "-",
                      "-", "-"});
        continue;
      }
      const auto counts =
          model.Evaluate(bundle.base.validation_features).ValueOrDie();
      size_t passed = 0, passed_improvers = 0;
      for (const auto& c : candidates) {
        const auto label = model.PredictLabel(c.values);
        if (label.ok() && *label == 1) {
          ++passed;
          passed_improvers += c.label;
        }
      }
      const double pass_rate = static_cast<double>(passed) /
                               static_cast<double>(candidates.size());
      const double enrichment =
          passed > 0 && base_rate > 0.0
              ? (static_cast<double>(passed_improvers) /
                 static_cast<double>(passed)) /
                    base_rate
              : 0.0;
      table.AddRow({InputName(input), ClassifierName(kind),
                    TablePrinter::Num(counts.Recall()),
                    TablePrinter::Num(counts.Precision()),
                    TablePrinter::Num(pass_rate),
                    StrFormat("%.2fx", enrichment)});
    }
  }
  table.Print();
  std::printf(
      "\nReading: enrichment > 1 would mean the filter concentrates "
      "improvers among passed candidates. On these synthetic targets all "
      "representations hover near 1.0x — usefulness here is mostly "
      "label-correlation, which no per-feature representation can see "
      "(DESIGN.md 'Known deviation'). The filter's value is therefore the "
      "~0.45 pass rate itself: half the downstream evaluations at "
      "near-zero score cost.\n");
}

}  // namespace
}  // namespace eafe::bench

int main(int argc, char** argv) {
  eafe::bench::Run(eafe::bench::ParseStandardFlags(argc, argv));
  return 0;
}
