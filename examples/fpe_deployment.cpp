// Deployment scenario: the FPE model is trained *once* on public data,
// saved to disk, and reused across every target dataset thereafter — the
// amortization that makes E-AFE's offline pre-training pay for itself
// ("if you consider deploying to multiple target datasets, the FPE model
// can be reused", Section III-D).
//
// Build & run:  cmake --build build && ./build/examples/fpe_deployment

#include <cstdio>
#include <utility>

#include "eafe.h"  // Umbrella header: the whole public API.

int main() {
  using namespace eafe;
  const std::string model_path = "/tmp/eafe_fpe_model.eafe";

  // ---- Offline, once: pre-train and persist the FPE model. -----------
  {
    std::printf("[offline] pre-training FPE model on public datasets...\n");
    auto trained =
        afe::PretrainFpe(data::MakePublicCollection(10, 0.6, 11), {})
            .ValueOrDie();
    const Status saved = serve::SaveModel(trained.model, model_path);
    std::printf("[offline] saved to %s (%s); scheme=%s d=%zu recall=%.2f\n",
                model_path.c_str(), saved.ToString().c_str(),
                hashing::MinHashSchemeToString(trained.selected.scheme)
                    .c_str(),
                trained.selected.dimension, trained.selected.recall);
  }

  // ---- Online, per target: load and search. No labeling, no classifier
  // ---- training — the expensive part is already amortized. -----------
  serve::LoadedModel loaded = serve::LoadModel(model_path).ValueOrDie();
  if (!loaded.fpe) {
    std::printf("[online] %s holds no FPE model\n", model_path.c_str());
    return 1;
  }
  const fpe::FpeModel model = std::move(*loaded.fpe);
  std::printf("[online] model loaded; trained=%s\n\n",
              model.trained() ? "yes" : "no");

  for (const char* target_name : {"diabetes", "SVMGuide3", "Airfoil"}) {
    const data::Dataset target =
        data::MakeTargetDatasetByName(target_name).ValueOrDie();
    afe::EafeSearch::Options options;
    options.search.epochs = 8;
    options.search.steps_per_agent = 3;
    options.search.seed = 29;
    options.stage1_epochs = 6;
    options.fpe_model = &model;
    afe::EafeSearch search(options);
    const auto result = search.Run(target).ValueOrDie();
    std::printf(
        "  %-12s %s  score %.3f -> %.3f  (evaluated %zu of %zu "
        "generated, %.1fs)\n",
        target_name,
        target.task == data::TaskType::kClassification ? "C" : "R",
        result.base_score, result.best_score, result.features_evaluated,
        result.features_generated, result.total_seconds);
  }

  std::printf(
      "\nThe same serialized model served all three targets — the "
      "pre-training cost is paid once per model, not per dataset.\n");
  return 0;
}
