// Low-level API tour: drive the substrates directly, without the search
// classes. Shows how a downstream user composes the pieces — manual
// transformations, the sample compressor, a hand-rolled greedy selection
// loop, and CSV export of the engineered table.
//
// Build & run:  cmake --build build && ./build/examples/custom_pipeline

#include <cstdio>

#include "afe/feature_space.h"
#include "afe/operators.h"
#include "data/csv.h"
#include "data/registry.h"
#include "hashing/sample_compressor.h"
#include "ml/evaluator.h"

int main() {
  using namespace eafe;

  data::Dataset dataset =
      data::MakeTargetDatasetByName("sonar").ValueOrDie();
  ml::TaskEvaluator evaluator;  // 5-fold CV random forest.
  const double base = evaluator.Score(dataset).ValueOrDie();
  std::printf("sonar: base RF score %.3f\n\n", base);

  // --- 1. Manual transformations with the operator substrate. ---------
  const data::Column& f0 = dataset.features.column(0);
  const data::Column& f1 = dataset.features.column(1);
  const data::Column ratio =
      afe::ApplyOperator(afe::Operator::kDivide, f0, f1).ValueOrDie();
  const data::Column log_f0 =
      afe::ApplyOperator(afe::Operator::kLog, f0, f0).ValueOrDie();
  std::printf("Hand-built features: %s, %s\n", ratio.name().c_str(),
              log_f0.name().c_str());

  // --- 2. Fixed-size signatures with the sample compressor. -----------
  hashing::CompressorOptions compressor_options;
  compressor_options.scheme = hashing::MinHashScheme::kCcws;
  compressor_options.dimension = 16;
  hashing::SampleCompressor compressor(compressor_options);
  const auto signature = compressor.Compress(ratio.values()).ValueOrDie();
  std::printf("%s compressed from %zu samples to a %zu-dim signature\n",
              ratio.name().c_str(), ratio.size(), signature.size());
  const double similarity =
      compressor.EstimateSimilarity(f0.values(), log_f0.values())
          .ValueOrDie();
  std::printf("estimated similarity(f0, log(f0)) = %.2f\n\n", similarity);

  // --- 3. A hand-rolled greedy AFE loop over the feature space. -------
  afe::FeatureSpace::Options space_options;
  space_options.max_order = 2;
  afe::FeatureSpace space(dataset, space_options);
  Rng rng(5);
  double best = base;
  size_t accepted = 0;
  size_t evaluations = 1;  // The base score.
  for (int attempt = 0; attempt < 60; ++attempt) {
    const size_t group =
        rng.UniformInt(static_cast<uint64_t>(space.num_groups()));
    const afe::FeatureSpace::Action action =
        space.SampleRandomAction(group, &rng);
    auto candidate = space.GenerateCandidate(action);
    if (!candidate.ok()) continue;
    data::Dataset trial = space.ToDataset();
    if (!trial.features.AddColumn(candidate->column).ok()) continue;
    const double score = evaluator.Score(trial).ValueOrDie();
    ++evaluations;
    if (score > best + 0.005 &&
        space.Accept(group, std::move(candidate).ValueOrDie()).ok()) {
      best = score;
      ++accepted;
    }
  }
  std::printf("Greedy loop: %.3f -> %.3f (%zu features accepted, %zu "
              "downstream evaluations)\n",
              base, best, accepted, evaluations);

  // --- 4. Export the engineered table as CSV. --------------------------
  data::Dataset engineered = space.ToDataset();
  data::DataFrame with_label = engineered.features;
  EAFE_CHECK(with_label
                 .AddColumn(data::Column("target", engineered.labels))
                 .ok());
  const std::string path = "/tmp/sonar_engineered.csv";
  const Status write_status = data::WriteCsv(with_label, path);
  std::printf("Engineered dataset written to %s (%s)\n", path.c_str(),
              write_status.ok() ? "ok" : write_status.ToString().c_str());
  return 0;
}
