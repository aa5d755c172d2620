#include "afe/eval_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "afe/feature_space.h"
#include "afe/search.h"
#include "core/rng.h"
#include "data/registry.h"
#include "ml/evaluator.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

data::Dataset SmallTarget() {
  data::MaterializeOptions options;
  options.max_samples = 150;
  options.max_features = 5;
  return data::MakeTargetDatasetByName("PimaIndian", options).ValueOrDie();
}

ml::EvaluatorOptions QuickEvaluator() {
  ml::EvaluatorOptions options;
  options.cv_folds = 3;
  options.rf_trees = 4;
  options.rf_max_depth = 3;
  options.seed = 5;
  return options;
}

/// `count` syntactically valid candidates with distinct names.
std::vector<SpaceFeature> MakeCandidates(const FeatureSpace& space,
                                         size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<SpaceFeature> candidates;
  std::unordered_set<std::string> names;
  while (candidates.size() < count) {
    const size_t group = rng.UniformInt(space.num_groups());
    const FeatureSpace::Action action = space.SampleRandomAction(group, &rng);
    auto candidate = space.GenerateCandidate(action);
    if (!candidate.ok()) continue;
    if (!names.insert(candidate->column.name()).second) continue;
    candidates.push_back(std::move(candidate).ValueOrDie());
  }
  return candidates;
}

class EvalServiceTest : public ::testing::Test {
 protected:
  void TearDown() override { runtime::SetGlobalThreads(1); }
};

/// The table each candidate is scored on.
std::vector<data::Dataset> CandidateTables(const FeatureSpace& space,
                                           size_t count, uint64_t seed) {
  std::vector<data::Dataset> tables;
  for (const SpaceFeature& candidate : MakeCandidates(space, count, seed)) {
    tables.push_back(BuildCandidateDataset(space, candidate).ValueOrDie());
  }
  return tables;
}

TEST_F(EvalServiceTest, ScoreDatasetMatchesTaskEvaluatorScore) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  ml::TaskEvaluator reference(QuickEvaluator());
  ml::TaskEvaluator evaluator(QuickEvaluator());
  EvalService service(&evaluator);
  for (const data::Dataset& table : CandidateTables(space, 3, 21)) {
    const double expected = reference.Score(table).ValueOrDie();
    const double actual = service.ScoreDataset(table).ValueOrDie();
    EXPECT_EQ(actual, expected);  // Bit-identical, not just close.
  }
}

TEST_F(EvalServiceTest, CacheHitAndMissAccounting) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const data::Dataset table = CandidateTables(space, 1, 3).front();

  ml::TaskEvaluator evaluator(QuickEvaluator());
  EvalService service(&evaluator);
  const double first = service.ScoreDataset(table).ValueOrDie();
  const double second = service.ScoreDataset(table).ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.requests(), 2u);
  EXPECT_EQ(service.cache_hits(), 1u);
  // One model fit happened...
  EXPECT_EQ(service.cache().stats().insertions, 1u);
  // ...but the accounting matches the cache-free serial path.
  EXPECT_EQ(evaluator.evaluation_count(), 2u);
}

/// `options` with element I of Fields() moved to another value: an enum
/// to a neighbouring enumerator, a number up by one.
template <size_t I>
ml::EvaluatorOptions PerturbField(ml::EvaluatorOptions options) {
  using Field = std::remove_cvref_t<
      std::tuple_element_t<I, decltype(options.Fields())>>;
  // Fields() lists const references; `options` itself is not const, so
  // writing through one is well-defined.
  Field& field = const_cast<Field&>(std::get<I>(options.Fields()));
  if constexpr (std::is_enum_v<Field>) {
    field = static_cast<Field>(
        static_cast<std::underlying_type_t<Field>>(field) ^ 1);
  } else {
    field = field + 1;
  }
  return options;
}

template <size_t... I>
std::vector<ml::EvaluatorOptions> PerturbEachField(
    const ml::EvaluatorOptions& options, std::index_sequence<I...>) {
  return {PerturbField<I>(options)...};
}

TEST_F(EvalServiceTest, SignatureTracksStateAndCandidate) {
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const std::vector<SpaceFeature> candidates = MakeCandidates(space, 2, 13);
  const ml::EvaluatorOptions options = QuickEvaluator();

  const auto signature = [&](const SpaceFeature& candidate,
                             const ml::EvaluatorOptions& opts) {
    return EvaluationSignature(
        BuildCandidateDataset(space, candidate).ValueOrDie(), opts);
  };
  // Same request -> same signature; different candidate -> different
  // signature.
  EXPECT_EQ(signature(candidates[0], options),
            signature(candidates[0], options));
  EXPECT_NE(signature(candidates[0], options),
            signature(candidates[1], options));

  // Perturbing each listed field in turn moves the digest away from the
  // base and from every other field's perturbation, which also catches a
  // field listed twice in Fields().
  constexpr size_t kFields = std::tuple_size_v<decltype(options.Fields())>;
  std::set<uint64_t> digests = {signature(candidates[0], options)};
  for (const ml::EvaluatorOptions& perturbed :
       PerturbEachField(options, std::make_index_sequence<kFields>())) {
    digests.insert(signature(candidates[0], perturbed));
  }
  EXPECT_EQ(digests.size(), kFields + 1);
}

/// Scores `tables` through one shared service from `tasks` pool tasks;
/// task t scores tables t, t + tasks, t + 2 * tasks, ...
std::vector<double> ScoreFromPoolTasks(const std::vector<data::Dataset>& tables,
                                       size_t tasks) {
  runtime::ThreadPool pool(tasks);
  ml::TaskEvaluator evaluator(QuickEvaluator());
  EvalService service(&evaluator);
  std::vector<double> scores(tables.size(), 0.0);
  std::vector<std::future<void>> done;
  for (size_t t = 0; t < tasks; ++t) {
    done.push_back(pool.Submit([&, t] {
      for (size_t i = t; i < tables.size(); i += tasks) {
        scores[i] = service.ScoreDataset(tables[i]).ValueOrDie();
      }
    }));
  }
  for (std::future<void>& task : done) task.get();
  EXPECT_EQ(service.requests(), tables.size());
  return scores;
}

TEST_F(EvalServiceTest, PoolTaskScoresMatchSerialBitForBit) {
  runtime::SetGlobalThreads(1);
  const data::Dataset dataset = SmallTarget();
  FeatureSpace space(dataset, {});
  const std::vector<data::Dataset> tables = CandidateTables(space, 8, 31);

  ml::TaskEvaluator serial_evaluator(QuickEvaluator());
  EvalService serial(&serial_evaluator);
  std::vector<double> serial_scores;
  for (const data::Dataset& table : tables) {
    serial_scores.push_back(serial.ScoreDataset(table).ValueOrDie());
  }

  const std::vector<double> parallel_scores = ScoreFromPoolTasks(tables, 4);
  ASSERT_EQ(parallel_scores.size(), serial_scores.size());
  for (size_t i = 0; i < serial_scores.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(parallel_scores[i]),
              std::bit_cast<uint64_t>(serial_scores[i]));
  }
  // Repeated parallel runs are identical to each other, too.
  const std::vector<double> repeat_scores = ScoreFromPoolTasks(tables, 4);
  for (size_t i = 0; i < serial_scores.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(repeat_scores[i]),
              std::bit_cast<uint64_t>(parallel_scores[i]));
  }
}

}  // namespace
}  // namespace eafe::afe
