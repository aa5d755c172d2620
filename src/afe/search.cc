#include "afe/search.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "core/string_util.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {

std::vector<double> BuildAgentState(int last_action, double last_reward,
                                    size_t group_size, double progress) {
  std::vector<double> state(kAgentStateDim, 0.0);
  if (last_action >= 0) {
    EAFE_CHECK_LT(static_cast<size_t>(last_action), kNumOperators);
    state[static_cast<size_t>(last_action)] = 1.0;
  }
  // Mild scaling keeps inputs O(1) for the tanh cell.
  state[kNumOperators] = static_cast<double>(group_size) / 8.0;
  state[kNumOperators + 1] = last_reward;
  state[kNumOperators + 2] = progress;
  return state;
}

Result<data::Dataset> BuildCandidateDataset(const FeatureSpace& space,
                                            const SpaceFeature& candidate) {
  data::Dataset dataset = space.ToDataset();
  data::Column column = candidate.column;
  const Status added = dataset.features.AddColumn(column);
  if (added.code() == StatusCode::kAlreadyExists) {
    column.set_name(column.name() + "#cand");
    EAFE_RETURN_NOT_OK(dataset.features.AddColumn(std::move(column)));
  } else {
    EAFE_RETURN_NOT_OK(added);
  }
  return dataset;
}

Status FinalizeSearchResult(const SearchOptions& options,
                            const data::Dataset& base_dataset,
                            SearchResult* result) {
  result->search_score = result->best_score;
  // Two repeats of held-out-seed CV with at least 5 folds: the final
  // comparison should carry less fold noise than the search itself.
  // The four scores (repeat r, base then best, at index 2r and 2r + 1)
  // are independent, so they run as one parallel region, each CV inline
  // on its own thread; the error and the sums are then taken in the
  // serial loop's order.
  constexpr size_t kRepeats = 2;
  const data::Dataset* datasets[] = {&base_dataset, &result->best_dataset};
  std::vector<Result<double>> scores(2 * kRepeats, 0.0);
  runtime::ParallelFor(
      runtime::GlobalPool(), scores.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          ml::EvaluatorOptions honest_options = options.evaluator;
          honest_options.cv_folds =
              std::max<size_t>(honest_options.cv_folds, 5);
          honest_options.seed += 7919 + (i / 2) * 104729;
          scores[i] = ml::TaskEvaluator(honest_options)
                          .Score(*datasets[i % 2]);
        }
      });
  double totals[2] = {0.0, 0.0};
  for (size_t i = 0; i < scores.size(); ++i) {
    EAFE_RETURN_NOT_OK(scores[i].status());
    totals[i % 2] += *scores[i];
  }
  result->base_score = totals[0] / 2.0;
  result->best_score = totals[1] / 2.0;
  return Status::OK();
}

}  // namespace eafe::afe
