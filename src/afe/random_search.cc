#include "afe/random_search.h"

#include "afe/search_pipeline.h"
#include "core/rng.h"
#include "core/stopwatch.h"

namespace eafe::afe {

RandomSearch::RandomSearch(const SearchOptions& options)
    : options_(options) {}

Result<SearchResult> RandomSearch::Run(const data::Dataset& dataset) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  SearchRun run(options_, name(), dataset);
  const FeatureSpace& space = run.space();
  SearchResult& result = run.result();
  Rng rng(options_.seed);
  EAFE_RETURN_NOT_OK(run.ScoreBase());

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    // Generation runs against the feature space frozen at epoch start
    // (the frame); accepts happen at the merge below, so candidate
    // scoring reads the frame concurrently without synchronization and
    // results are identical at any --threads (DESIGN.md §12).
    SearchStepPipeline pipeline = run.StartEpoch();
    for (size_t group = 0; group < space.num_groups(); ++group) {
      for (size_t step = 0; step < options_.steps_per_agent; ++step) {
        StepTask task;
        task.group = group;
        task.accept_group = group;
        Stopwatch gen_watch;
        const FeatureSpace::Action action =
            space.SampleRandomAction(group, &rng);
        auto candidate = space.GenerateCandidate(action);
        result.generation_seconds += gen_watch.ElapsedSeconds();
        StepAttempt attempt;
        if (candidate.ok()) {  // Duplicate/over-order/constant otherwise.
          ++result.features_generated;
          attempt.generated = true;
          attempt.candidate = std::move(candidate).ValueOrDie();
        }
        task.attempts.push_back(std::move(attempt));
        pipeline.Submit(std::move(task));
      }
    }
    EAFE_ASSIGN_OR_RETURN(auto tasks, pipeline.Finish());
    for (StepTask& task : tasks) run.Merge(task);
    if (run.EndEpoch(epoch)) break;
  }
  return run.Finish();
}

}  // namespace eafe::afe
