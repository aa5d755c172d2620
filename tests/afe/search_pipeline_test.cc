// Thread-count equivalence sweep for the pipelined search (DESIGN.md
// §12): for every driver, a search on a 4- or 16-thread pool must produce
// bit-identical results to the serial run at --threads=1, where every
// task runs inline. The global pool is rebuilt per point, and the suite
// restores the serial default afterwards so other tests are unaffected.
// Golden digests pin each search method's serial result, a work test
// bounds the binner fits a search pays, hand-built tasks test
// SearchRun::Merge, and hand-built SearchStepPipelines test the executor
// itself: order, fan-out, teardown, inline fallback and failure paths.

#include "afe/search_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "afe/eafe.h"
#include "afe/fpe_pretraining.h"
#include "afe/nfs.h"
#include "afe/random_search.h"
#include "afe/search.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/status.h"
#include "data/column.h"
#include "data/dataframe.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "fpe/fpe_model.h"
#include "ml/evaluator.h"
#include "ml/feature_binner.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace eafe::afe {
namespace {

data::Dataset SmallTarget() {
  data::MaterializeOptions options;
  options.max_samples = 150;
  options.max_features = 5;
  return data::MakeTargetDatasetByName("PimaIndian", options).ValueOrDie();
}

SearchOptions QuickSearch() {
  SearchOptions options;
  options.epochs = 2;
  options.steps_per_agent = 2;
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 4;
  options.evaluator.rf_max_depth = 3;
  options.seed = 33;
  return options;
}

/// Shared FPE model for the E-AFE points (training is the slow part).
const fpe::FpeTrainingResult& SharedFpe() {
  static const auto* kResult = [] {
    FpePretrainingOptions options;
    options.trainer.dimensions = {16};
    options.trainer.schemes = {hashing::MinHashScheme::kCcws};
    options.trainer.evaluator.cv_folds = 3;
    options.trainer.evaluator.rf_trees = 4;
    options.trainer.evaluator.rf_max_depth = 3;
    options.generated_per_dataset = 6;
    auto result =
        PretrainFpe(data::MakePublicCollection(4, 0.6, 91), options);
    EAFE_CHECK(result.ok());
    return new fpe::FpeTrainingResult(std::move(result).ValueOrDie());
  }();
  return *kResult;
}

SearchResult RunMethod(const std::string& method, size_t threads) {
  runtime::SetGlobalThreads(threads);
  SearchResult result;
  if (method == "random") {
    RandomSearch search(QuickSearch());
    result = search.Run(SmallTarget()).ValueOrDie();
  } else if (method == "nfs") {
    NfsSearch search(QuickSearch());
    result = search.Run(SmallTarget()).ValueOrDie();
  } else if (method == "eafe_r") {
    EafeSearch::Options options;
    options.search = QuickSearch();
    options.variant = EafeSearch::Variant::kPolicyGradient;
    options.fpe_model = &SharedFpe().model;
    options.max_generation_attempts = 2;
    EafeSearch search(options);
    result = search.Run(SmallTarget()).ValueOrDie();
  } else if (method == "eafe_d") {
    EafeSearch::Options options;
    options.search = QuickSearch();
    options.variant = EafeSearch::Variant::kRandomDrop;
    options.max_generation_attempts = 2;
    EafeSearch search(options);
    result = search.Run(SmallTarget()).ValueOrDie();
  } else {
    EafeSearch::Options options;
    options.search = QuickSearch();
    options.fpe_model = &SharedFpe().model;
    options.stage1_epochs = 2;
    options.max_generation_attempts = 2;
    EafeSearch search(options);
    result = search.Run(SmallTarget()).ValueOrDie();
  }
  runtime::SetGlobalThreads(1);  // Restore the serial default.
  return result;
}

/// Everything except timing must match bit for bit.
void ExpectBitIdentical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.base_score, b.base_score);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.search_score, b.search_score);
  EXPECT_EQ(a.downstream_evaluations, b.downstream_evaluations);
  EXPECT_EQ(a.features_generated, b.features_generated);
  EXPECT_EQ(a.features_evaluated, b.features_evaluated);
  EXPECT_EQ(a.features_kept, b.features_kept);
  EXPECT_EQ(a.eval_cache_hits, b.eval_cache_hits);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].best_score, b.curve[i].best_score);
    EXPECT_EQ(a.curve[i].cumulative_evaluations,
              b.curve[i].cumulative_evaluations);
  }
  ASSERT_EQ(a.best_dataset.num_features(), b.best_dataset.num_features());
  const auto& cols_a = a.best_dataset.features.columns();
  const auto& cols_b = b.best_dataset.features.columns();
  for (size_t c = 0; c < cols_a.size(); ++c) {
    EXPECT_EQ(cols_a[c].name(), cols_b[c].name());
    EXPECT_EQ(cols_a[c].values(), cols_b[c].values());
  }
}

/// FNV-1a over 64-bit words: folds one word into the running digest.
uint64_t Fold(uint64_t digest, uint64_t word) {
  return (digest ^ word) * 0x100000001B3ULL;
}

uint64_t FoldDouble(uint64_t digest, double value) {
  return Fold(digest, std::bit_cast<uint64_t>(value));
}

/// Digest of everything a search decides: scores and the curve as bit
/// patterns, the funnel counts, and the selected table's column names
/// and values. Timing and cache-hit counts are left out (they vary by
/// scheduling, not by result).
uint64_t SearchDigest(const SearchResult& result) {
  uint64_t digest = 0xCBF29CE484222325ULL;
  digest = FoldDouble(digest, result.base_score);
  digest = FoldDouble(digest, result.best_score);
  digest = FoldDouble(digest, result.search_score);
  digest = Fold(digest, result.curve.size());
  for (const EpochStats& stats : result.curve) {
    digest = Fold(digest, stats.epoch);
    digest = FoldDouble(digest, stats.best_score);
    digest = Fold(digest, stats.cumulative_evaluations);
    digest = Fold(digest, stats.features_generated);
  }
  digest = Fold(digest, result.features_evaluated);
  digest = Fold(digest, result.features_generated);
  digest = Fold(digest, result.features_kept);
  const auto& columns = result.best_dataset.features.columns();
  digest = Fold(digest, columns.size());
  for (const data::Column& column : columns) {
    for (unsigned char c : column.name()) digest = Fold(digest, c);
    digest = Fold(digest, column.values().size());
    for (double v : column.values()) digest = FoldDouble(digest, v);
  }
  return digest;
}

// Golden digests of one fixed-seed serial search per method. The
// equivalence tests below compare thread counts with each other, so a
// binning or scoring path that is wrong the same way at each would pass
// them; these pin the results themselves. Regression-free refactors of
// the evaluation path must leave them unchanged, at every SIMD tier
// (EAFE_SIMD=scalar included); a change that moves one on purpose
// re-pins it and says why next to it.
using DigestPoint = std::pair<const char*, uint64_t>;

class GoldenSearchDigest : public ::testing::TestWithParam<DigestPoint> {};

TEST_P(GoldenSearchDigest, SerialSearchMatchesPinnedDigest) {
  const auto& [method, expected] = GetParam();
  const SearchResult result = RunMethod(method, 1);
  EXPECT_EQ(SearchDigest(result), expected)
      << method << " digest 0x" << std::hex << SearchDigest(result);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, GoldenSearchDigest,
    ::testing::Values(DigestPoint{"nfs", 0x1d2e1b7db7adbdd7ULL},
                      DigestPoint{"random", 0xd51620509d3651ebULL},
                      DigestPoint{"eafe_d", 0x7d9eecacef243fecULL},
                      DigestPoint{"eafe_r", 0xd4ebd9e5e43dac11ULL},
                      DigestPoint{"eafe_full", 0x25b352d064f632dfULL}),
    [](const auto& point) { return std::string(point.param.first); });

class SearchPipelineEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SearchPipelineEquivalence, PooledMatchesSerialAtAnyThreads) {
  const std::string method = GetParam();
  const SearchResult serial = RunMethod(method, 1);
  for (size_t threads : {size_t{4}, size_t{16}}) {
    SCOPED_TRACE(method + " threads=" + std::to_string(threads));
    ExpectBitIdentical(serial, RunMethod(method, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, SearchPipelineEquivalence,
                         ::testing::Values("random", "nfs", "eafe_d",
                                           "eafe_r", "eafe_full"));

// The paper's E-AFE_R is NFS plus the FPE filter. With a threshold of 0
// every candidate passes FPE, so E-AFE_R must decide exactly what NFS
// decides: same draws, same candidates, same merges, same returns. Only
// the method name differs.
TEST(AgentLoopTest, NfsIsEafeRWithoutTheFilter) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    runtime::SetGlobalThreads(threads);
    EafeSearch::Options options;
    options.search = QuickSearch();
    options.variant = EafeSearch::Variant::kPolicyGradient;
    options.fpe_model = &SharedFpe().model;
    options.fpe_accept_threshold = 0.0;
    const SearchResult eafe_r =
        EafeSearch(options).Run(SmallTarget()).ValueOrDie();
    SearchResult nfs =
        NfsSearch(QuickSearch()).Run(SmallTarget()).ValueOrDie();
    runtime::SetGlobalThreads(1);  // Restore the serial default.
    EXPECT_EQ(eafe_r.method, "E-AFE_R");
    EXPECT_EQ(nfs.method, "NFS");
    EXPECT_GT(nfs.features_evaluated, 0u);
    nfs.method = eafe_r.method;
    ExpectBitIdentical(eafe_r, nfs);
  }
}

// The honest re-score runs its four CVs (two repeats of base and best)
// as one parallel region; the scores must not depend on how many
// threads share them.
TEST(FinalizeSearchResultTest, BitIdenticalAtAnyThreads) {
  const SearchOptions options = QuickSearch();
  const SearchResult searched = RunMethod("nfs", 1);
  ASSERT_GT(searched.best_dataset.num_features(),
            SmallTarget().num_features());
  std::vector<SearchResult> finalized;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
    runtime::SetGlobalThreads(threads);
    SearchResult result = searched;
    ASSERT_TRUE(FinalizeSearchResult(options, SmallTarget(), &result).ok());
    finalized.push_back(std::move(result));
  }
  runtime::SetGlobalThreads(1);
  for (const SearchResult& result : finalized) {
    EXPECT_EQ(std::bit_cast<uint64_t>(result.base_score),
              std::bit_cast<uint64_t>(finalized[0].base_score));
    EXPECT_EQ(std::bit_cast<uint64_t>(result.best_score),
              std::bit_cast<uint64_t>(finalized[0].best_score));
    EXPECT_EQ(std::bit_cast<uint64_t>(result.search_score),
              std::bit_cast<uint64_t>(searched.best_score));
    // `searched` was finalized inside Run at one thread, so re-scoring
    // its best table reproduces its honest best score.
    EXPECT_EQ(std::bit_cast<uint64_t>(result.best_score),
              std::bit_cast<uint64_t>(searched.best_score));
  }
  // The serial formula: each score is the mean of two held-out repeats.
  double base_total = 0.0;
  for (uint64_t repeat = 0; repeat < 2; ++repeat) {
    ml::EvaluatorOptions honest = options.evaluator;
    honest.cv_folds = 5;
    honest.seed += 7919 + repeat * 104729;
    base_total += ml::TaskEvaluator(honest).Score(SmallTarget()).ValueOrDie();
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(finalized[0].base_score),
            std::bit_cast<uint64_t>(base_total / 2.0));
}

// Every CV runs even when one fails, but the error returned is the one
// the serial loop met first: base before best, repeat 0 before 1.
TEST(FinalizeSearchResultTest, ReturnsFirstErrorInSerialOrder) {
  const SearchOptions options = QuickSearch();
  const data::Dataset base = SmallTarget();
  data::Dataset no_features = base;
  no_features.features = data::DataFrame();
  data::Dataset short_labels = base;
  short_labels.labels.pop_back();
  const Status no_features_error = no_features.Validate();
  const Status short_labels_error = short_labels.Validate();
  ASSERT_FALSE(no_features_error.ok());
  ASSERT_FALSE(short_labels_error.ok());
  ASSERT_NE(no_features_error.ToString(), short_labels_error.ToString());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    runtime::SetGlobalThreads(threads);
    SearchResult bad_best;
    bad_best.best_dataset = no_features;
    EXPECT_EQ(FinalizeSearchResult(options, base, &bad_best).ToString(),
              no_features_error.ToString());
    SearchResult both_bad;
    both_bad.best_dataset = no_features;
    EXPECT_EQ(
        FinalizeSearchResult(options, short_labels, &both_bad).ToString(),
        short_labels_error.ToString());
  }
  runtime::SetGlobalThreads(1);
}

/// A SearchRun on SmallTarget() after ScoreBase(), and hand-built
/// evaluated tasks to merge into it.
struct MergeFixture {
  explicit MergeFixture(const SearchOptions& options = QuickSearch())
      : run(options, "merge", dataset) {
    EXPECT_TRUE(run.ScoreBase().ok());
  }

  /// An evaluated task whose chosen candidate is a column `name` for
  /// group 0, scoring `score`.
  StepTask Task(const std::string& name, double score) const {
    StepTask task;
    StepAttempt attempt;
    attempt.generated = true;
    attempt.candidate.column =
        data::Column(name, dataset.features.columns()[0].values());
    attempt.candidate.order = 1;
    task.attempts.push_back(std::move(attempt));
    task.chosen = 0;
    task.evaluated = true;
    task.score = score;
    task.eval_seconds = 0.25;
    return task;
  }

  const SearchResult& result() { return run.result(); }

  data::Dataset dataset = SmallTarget();
  SearchRun run;
};

TEST(SearchRunMergeTest, AcceptsAGainAboveTheMargin) {
  MergeFixture fixture;
  const double base = fixture.result().best_score;
  EXPECT_EQ(fixture.result().base_score, base);
  StepTask task = fixture.Task("a", base + 0.1);
  EXPECT_EQ(fixture.run.Merge(task), (base + 0.1) - base);
  EXPECT_EQ(fixture.result().best_score, base + ((base + 0.1) - base));
  EXPECT_EQ(fixture.result().features_kept, 1u);
  EXPECT_EQ(fixture.result().features_evaluated, 1u);
  EXPECT_GE(fixture.result().evaluation_seconds, 0.25);
  EXPECT_TRUE(fixture.run.space().Contains(0, "a"));
}

// Two tasks of one epoch can generate the same name against the frame.
// The second counts as evaluated and its reward is its gain over the
// best the first one raised, but it is not accepted again.
TEST(SearchRunMergeTest, SameNameInOneEpochIsNotAcceptedTwice) {
  MergeFixture fixture;
  const double base = fixture.result().best_score;
  StepTask first = fixture.Task("a", base + 0.1);
  fixture.run.Merge(first);
  const double best = fixture.result().best_score;
  StepTask second = fixture.Task("a", base + 0.2);
  EXPECT_EQ(fixture.run.Merge(second), (base + 0.2) - best);
  EXPECT_EQ(fixture.result().best_score, best);
  EXPECT_EQ(fixture.result().features_kept, 1u);
  EXPECT_EQ(fixture.result().features_evaluated, 2u);
  EXPECT_EQ(fixture.run.space().group(0).size(), 2u);
}

// The margin is strict: with a margin of 0, a task that scores exactly
// the running best gains 0 and is not accepted.
TEST(SearchRunMergeTest, ScoringExactlyTheBestIsNotAccepted) {
  SearchOptions options = QuickSearch();
  options.accept_margin = 0.0;
  MergeFixture fixture(options);
  const double base = fixture.result().best_score;
  StepTask task = fixture.Task("a", base);
  EXPECT_EQ(fixture.run.Merge(task), 0.0);
  EXPECT_EQ(fixture.result().best_score, base);
  EXPECT_EQ(fixture.result().features_kept, 0u);
  EXPECT_EQ(fixture.result().features_evaluated, 1u);
  EXPECT_FALSE(fixture.run.space().Contains(0, "a"));
}

TEST(SearchRunMergeTest, UnevaluatedTaskCountsNothing) {
  MergeFixture fixture;
  const SearchResult before = fixture.result();
  StepTask task = fixture.Task("a", before.best_score + 0.1);
  task.evaluated = false;
  task.chosen = -1;
  EXPECT_EQ(fixture.run.Merge(task), 0.0);
  EXPECT_EQ(fixture.result().best_score, before.best_score);
  EXPECT_EQ(fixture.result().features_evaluated, 0u);
  EXPECT_EQ(fixture.result().features_kept, 0u);
  EXPECT_EQ(fixture.result().evaluation_seconds, before.evaluation_seconds);
  EXPECT_FALSE(fixture.run.space().Contains(0, "a"));
}

// FeatureSpace's default cap is six generated features per group: a
// seventh gain, however large, leaves the best score where it was.
TEST(SearchRunMergeTest, FullGroupLeavesTheBestUnchanged) {
  MergeFixture fixture;
  for (int i = 0; i < 6; ++i) {
    StepTask task = fixture.Task("a" + std::to_string(i),
                                 fixture.result().best_score + 0.01);
    fixture.run.Merge(task);
  }
  ASSERT_EQ(fixture.result().features_kept, 6u);
  const double best = fixture.result().best_score;
  StepTask task = fixture.Task("full", best + 0.5);
  EXPECT_EQ(fixture.run.Merge(task), (best + 0.5) - best);
  EXPECT_EQ(fixture.result().best_score, best);
  EXPECT_EQ(fixture.result().features_kept, 6u);
  EXPECT_EQ(fixture.result().features_evaluated, 7u);
  EXPECT_FALSE(fixture.run.space().Contains(0, "full"));
}

// Each EndEpoch appends the epoch's curve point.
TEST(SearchRunTest, EndEpochAppendsTheEpochsCurvePoint) {
  MergeFixture fixture;
  StepTask task = fixture.Task("a", fixture.result().best_score + 0.1);
  fixture.run.Merge(task);
  for (size_t epoch = 0; epoch < 3; ++epoch) fixture.run.EndEpoch(epoch);
  const std::vector<EpochStats>& curve = fixture.result().curve;
  ASSERT_EQ(curve.size(), 3u);
  for (size_t epoch = 0; epoch < curve.size(); ++epoch) {
    EXPECT_EQ(curve[epoch].epoch, epoch);
    EXPECT_EQ(curve[epoch].best_score, fixture.result().best_score);
  }
}

// Work bound: the pipeline bins each epoch's frame once and every
// evaluation bins only its candidate column (FeatureBinner::Extend, not
// a Fit). The only full binner fits left are the base score, one per
// epoch frame, and the four honest final scores (two repeats of base and
// best). Binning every evaluated table in full costs one Fit per
// evaluated candidate on top of that.
TEST(SearchPipelineTest, EvaluationsBinOnlyTheCandidateColumn) {
  ml::FeatureBinner::ResetTotalFits();
  const SearchResult result = RunMethod("nfs", 4);
  ASSERT_GT(result.features_evaluated, result.curve.size());
  EXPECT_LE(ml::FeatureBinner::TotalFits(), 1 + result.curve.size() + 4);
}

/// A frame and the evaluation service a hand-built SearchStepPipeline
/// scores against.
struct StepFixture {
  data::Dataset dataset = SmallTarget();
  FeatureSpace space{dataset, FeatureSpace::Options()};
  ml::TaskEvaluator evaluator{QuickSearch().evaluator};
  EvalService eval_service{&evaluator};

  /// `count` generated candidates, drawn with a fixed seed.
  std::vector<SpaceFeature> Candidates(size_t count) const {
    Rng rng(11);
    std::vector<SpaceFeature> candidates;
    while (candidates.size() < count) {
      const size_t group = rng.UniformInt(space.num_groups());
      auto candidate =
          space.GenerateCandidate(space.SampleRandomAction(group, &rng));
      if (candidate.ok()) {
        candidates.push_back(std::move(candidate).ValueOrDie());
      }
    }
    return candidates;
  }
};

/// One task carrying `candidate` as its only attempt.
StepTask OneAttemptTask(size_t index, SpaceFeature candidate, bool pre_vetted) {
  StepTask task;
  task.pre_vetted = pre_vetted;
  StepAttempt attempt;
  attempt.action_index = index;
  attempt.generated = true;
  attempt.candidate = std::move(candidate);
  task.attempts.push_back(std::move(attempt));
  return task;
}

/// A skipped task: both steps pass it through at once.
StepTask SkippedTask(size_t index) {
  StepTask task;
  task.skipped = true;
  StepAttempt attempt;
  attempt.action_index = index;
  task.attempts.push_back(std::move(attempt));
  return task;
}

/// Recording gateway whose `eafe_pipeline_eval_busy_workers` gauge calls
/// `on_start` on the thread that starts each task, as the task starts.
/// Installed process-wide with a `threads`-thread global pool for its
/// lifetime; the destructor drops the pool first, since a pool built
/// meanwhile holds instruments the gateway owns.
class TaskStartProbe : public runtime::MetricGateway {
 public:
  TaskStartProbe(size_t threads, std::function<void()> on_start)
      : gauge_(std::move(on_start)) {
    runtime::SetGlobalMetrics(this);
    runtime::SetGlobalThreads(threads);
  }
  ~TaskStartProbe() override {
    runtime::SetGlobalThreads(1);
    EXPECT_EQ(runtime::GlobalPool(), nullptr);
    runtime::SetGlobalMetrics(nullptr);
  }

  runtime::MetricCounter* Counter(const std::string& name,
                                  const std::string& help) override {
    return recorder_.Counter(name, help);
  }
  runtime::MetricGauge* Gauge(const std::string& name,
                              const std::string& help) override {
    if (name == "eafe_pipeline_eval_busy_workers") return &gauge_;
    return recorder_.Gauge(name, help);
  }
  runtime::MetricHistogram* Histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> buckets) override {
    return recorder_.Histogram(name, help, std::move(buckets));
  }
  std::string TextExposition() const override {
    return recorder_.TextExposition();
  }

  /// Tasks finished so far.
  uint64_t ItemsTotal() {
    return recorder_.Counter("eafe_pipeline_eval_items_total", "")->Value();
  }

 private:
  class StartGauge : public runtime::MetricGauge {
   public:
    explicit StartGauge(std::function<void()> on_start)
        : on_start_(std::move(on_start)) {}
    void Set(double value) override { value_.store(value); }
    void Add(double delta) override {
      if (delta > 0 && on_start_) on_start_();
      value_.fetch_add(delta);
    }
    double Value() const override { return value_.load(); }

   private:
    std::function<void()> on_start_;
    std::atomic<double> value_{0.0};
  };

  runtime::TextMetricGateway recorder_;
  StartGauge gauge_;
};

TEST(SearchPipelineTest, AsyncRunCountsEveryTask) {
  // async() reports that the pool executor engaged, and the `eval`
  // family counts one item per submitted task, skipped and evaluated
  // alike. The filter runs inside the same task, so no `filter` family
  // exists.
  StepFixture fixture;
  const std::vector<SpaceFeature> candidates = fixture.Candidates(3);
  TaskStartProbe probe(4, nullptr);
  {
    SearchStepPipeline pipeline(StepPipelineConfig(), &fixture.space,
                                &fixture.eval_service);
    ASSERT_TRUE(pipeline.async());
    for (size_t i = 0; i < 6; ++i) {
      pipeline.Submit(i % 2 == 0 ? OneAttemptTask(i, candidates[i / 2], true)
                                 : SkippedTask(i));
    }
    ASSERT_TRUE(pipeline.Finish().ok());
  }
  EXPECT_EQ(probe.ItemsTotal(), 6u);
  const std::string exposition = probe.TextExposition();
  EXPECT_NE(exposition.find("eafe_pipeline_eval_items_total"),
            std::string::npos);
  EXPECT_EQ(exposition.find("eafe_pipeline_filter_"), std::string::npos);
}

// Tasks of uneven cost: the first task to start waits until every other
// task has finished, so completion order is not submission order (the
// wait times out rather than hangs). Finish() must still return
// submission order.
TEST(SearchPipelineTest, UnevenTasksComeBackInSubmissionOrder) {
  constexpr size_t kTasks = 24;
  StepFixture fixture;
  const std::vector<SpaceFeature> candidates = fixture.Candidates(kTasks);
  std::atomic<bool> first{true};
  TaskStartProbe probe(4, [&] {
    if (!first.exchange(false)) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (probe.ItemsTotal() < kTasks - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  {
    SearchStepPipeline pipeline(StepPipelineConfig(), &fixture.space,
                                &fixture.eval_service);
    ASSERT_TRUE(pipeline.async());
    for (size_t i = 0; i < kTasks; ++i) {
      pipeline.Submit(i % 4 == 0 ? OneAttemptTask(i, candidates[i], true)
                                 : SkippedTask(i));
    }
    const std::vector<StepTask> tasks = pipeline.Finish().ValueOrDie();
    ASSERT_EQ(tasks.size(), kTasks);
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(tasks[i].attempts.front().action_index, i);
      EXPECT_EQ(tasks[i].evaluated, i % 4 == 0) << "task " << i;
    }
  }
}

// Four tasks that each wait, as they start, until all four have started:
// they can only all meet if every thread of the 4-thread pool runs one.
// The wait times out, so a pipeline that uses fewer threads fails here
// instead of hanging.
TEST(SearchPipelineTest, EveryPoolThreadRunsTasks) {
  constexpr size_t kThreads = 4;
  StepFixture fixture;
  std::mutex mu;
  std::condition_variable all_started;
  size_t started = 0;
  size_t met = 0;
  std::set<int> workers;
  TaskStartProbe probe(kThreads, [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    workers.insert(runtime::ThreadPool::CurrentWorkerIndex());
    all_started.notify_all();
    if (all_started.wait_for(lock, std::chrono::seconds(10),
                             [&] { return started >= kThreads; })) {
      ++met;
    }
  });
  {
    SearchStepPipeline pipeline(StepPipelineConfig(), &fixture.space,
                                &fixture.eval_service);
    ASSERT_TRUE(pipeline.async());
    for (size_t i = 0; i < kThreads; ++i) pipeline.Submit(SkippedTask(i));
    EXPECT_EQ(pipeline.Finish().ValueOrDie().size(), kThreads);
  }
  EXPECT_EQ(met, kThreads);
  EXPECT_EQ(workers, (std::set<int>{0, 1, 2, 3}));
}

// Dropping a pipeline without Finish() must wait for the tasks it
// handed the pool: they reference its task list, the frame and the eval
// service, all destroyed right after it (the sanitizer suites catch a
// task that outlives them).
TEST(SearchPipelineTest, DestroyWithoutFinishWaitsForTasks) {
  constexpr size_t kTasks = 8;
  TaskStartProbe probe(4, nullptr);
  {
    StepFixture fixture;
    const std::vector<SpaceFeature> candidates = fixture.Candidates(kTasks);
    SearchStepPipeline pipeline(StepPipelineConfig(), &fixture.space,
                                &fixture.eval_service);
    ASSERT_TRUE(pipeline.async());
    for (size_t i = 0; i < kTasks; ++i) {
      pipeline.Submit(OneAttemptTask(i, candidates[i], /*pre_vetted=*/true));
    }
  }
  EXPECT_EQ(probe.ItemsTotal(), kTasks);
}

// A pipeline built on a pool worker must not queue its tasks behind the
// worker that waits for them: it runs every task inline, on that worker.
TEST(SearchPipelineTest, PipelineBuiltOnAPoolWorkerRunsInline) {
  StepFixture fixture;
  const std::vector<SpaceFeature> candidates = fixture.Candidates(3);
  std::mutex mu;
  std::set<std::thread::id> task_threads;
  TaskStartProbe probe(4, [&] {
    std::lock_guard<std::mutex> lock(mu);
    task_threads.insert(std::this_thread::get_id());
  });
  std::thread::id builder;
  bool async = true;
  std::vector<StepTask> tasks;
  runtime::GlobalPool()
      ->Submit([&] {
        builder = std::this_thread::get_id();
        SearchStepPipeline pipeline(StepPipelineConfig(), &fixture.space,
                                    &fixture.eval_service);
        async = pipeline.async();
        for (size_t i = 0; i < candidates.size(); ++i) {
          pipeline.Submit(OneAttemptTask(i, candidates[i], true));
        }
        tasks = pipeline.Finish().ValueOrDie();
      })
      .get();
  EXPECT_FALSE(async);
  EXPECT_EQ(task_threads, std::set<std::thread::id>{builder});
  ASSERT_EQ(tasks.size(), candidates.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].attempts.front().action_index, i);
    EXPECT_TRUE(tasks[i].evaluated);
  }
}

// The producer is not a pool worker, so a ParallelFor it issues between
// Submit()s fans out: its blocks queue behind the tasks already on the
// pool, then run. It must come back complete and correct.
TEST(SearchPipelineTest, ProducerParallelForBetweenSubmitsFansOut) {
  constexpr size_t kTasks = 8;
  StepFixture fixture;
  const std::vector<SpaceFeature> candidates = fixture.Candidates(kTasks);
  runtime::SetGlobalThreads(4);
  runtime::ThreadPool* const pool = runtime::GlobalPool();
  {
    SearchStepPipeline pipeline(StepPipelineConfig(), &fixture.space,
                                &fixture.eval_service);
    ASSERT_TRUE(pipeline.async());
    for (size_t i = 0; i < kTasks; ++i) {
      pipeline.Submit(OneAttemptTask(i, candidates[i], /*pre_vetted=*/true));
      std::atomic<size_t> blocks{0};
      std::atomic<long long> sum{0};
      runtime::ParallelFor(pool, 64, [&](size_t begin, size_t end) {
        blocks.fetch_add(1);
        long long local = 0;
        for (size_t k = begin; k < end; ++k) local += static_cast<long long>(k);
        sum.fetch_add(local);
      });
      EXPECT_EQ(blocks.load(), 4u) << "after task " << i;
      EXPECT_EQ(sum.load(), 64 * 63 / 2) << "after task " << i;
    }
    const std::vector<StepTask> tasks = pipeline.Finish().ValueOrDie();
    ASSERT_EQ(tasks.size(), kTasks);
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(tasks[i].attempts.front().action_index, i);
      EXPECT_TRUE(tasks[i].evaluated);
    }
  }
  runtime::SetGlobalThreads(1);
}

enum class Failure { kFilter, kEval };

// Failure paths of the fused stage: 4 workers and 24 tasks under the FPE
// filter with an untrained model. Both failures need no test hook. A filter failure is
// a task that is not pre-vetted, so PredictProbability returns
// FailedPrecondition. An eval failure is a pre-vetted task whose
// candidate column is one row short, so BuildCandidateDataset fails.
// Every other task is pre-vetted, skips the filter and evaluates. The
// two failing tasks are adjacent, so they race on two workers and either
// may finish first. Each kind takes the lower index in one of the two
// runs; Finish() must return the lower-index error, and the pool must
// stay usable afterwards.
TEST(SearchPipelineTest, FusedStageReportsFirstFailureInSequenceOrder) {
  constexpr size_t kTasks = 24;
  constexpr size_t kFirstFailure = 11;
  StepFixture fixture;
  const std::vector<SpaceFeature> candidates = fixture.Candidates(kTasks);
  const fpe::FpeModel untrained;
  StepPipelineConfig config;
  config.filter = StepFilter::kFpe;
  config.fpe_model = &untrained;

  runtime::SetGlobalThreads(4);
  runtime::ThreadPool* const pool = runtime::GlobalPool();
  for (const Failure lower : {Failure::kFilter, Failure::kEval}) {
    SCOPED_TRACE(lower == Failure::kFilter ? "filter first" : "eval first");
    const auto failure_at = [&](size_t index) -> std::optional<Failure> {
      if (index == kFirstFailure) return lower;
      if (index == kFirstFailure + 1) {
        return lower == Failure::kFilter ? Failure::kEval : Failure::kFilter;
      }
      return std::nullopt;
    };
    std::string short_column;
    {
      SearchStepPipeline pipeline(config, &fixture.space,
                                  &fixture.eval_service);
      ASSERT_TRUE(pipeline.async());
      for (size_t i = 0; i < kTasks; ++i) {
        SpaceFeature candidate = candidates[i];
        const std::optional<Failure> failure = failure_at(i);
        if (failure == Failure::kEval) {
          std::vector<double> values = candidate.column.values();
          values.pop_back();
          short_column = candidate.column.name();
          candidate.column = data::Column(short_column, std::move(values));
        }
        pipeline.Submit(OneAttemptTask(i, std::move(candidate),
                                       failure != Failure::kFilter));
      }
      const Result<std::vector<StepTask>> finished = pipeline.Finish();
      ASSERT_FALSE(finished.ok());
      const Status& error = finished.status();
      if (lower == Failure::kFilter) {
        EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition)
            << error.ToString();
      } else {
        EXPECT_EQ(error.code(), StatusCode::kInvalidArgument)
            << error.ToString();
        // The row-count error names the real column, not a "#cand" retry.
        EXPECT_NE(error.message().find("'" + short_column + "'"),
                  std::string::npos)
            << error.ToString();
        EXPECT_EQ(error.message().find("#cand"), std::string::npos);
      }
    }

    // The same pool still fans out a multi-block region...
    ASSERT_EQ(runtime::GlobalPool(), pool);
    std::atomic<int> on_workers{0};
    runtime::ParallelFor(pool, 4, [&](size_t, size_t) {
      if (runtime::ThreadPool::OnWorkerThread()) on_workers.fetch_add(1);
    });
    EXPECT_EQ(on_workers.load(), 3);
    // ...and runs a fresh pipeline to completion.
    SearchStepPipeline fresh(config, &fixture.space, &fixture.eval_service);
    ASSERT_TRUE(fresh.async());
    for (size_t i = 0; i < 4; ++i) {
      fresh.Submit(OneAttemptTask(i, candidates[i], /*pre_vetted=*/true));
    }
    const std::vector<StepTask> tasks = fresh.Finish().ValueOrDie();
    ASSERT_EQ(tasks.size(), 4u);
    for (const StepTask& task : tasks) EXPECT_TRUE(task.evaluated);
  }
  runtime::SetGlobalThreads(1);
}

TEST(SearchPipelineTest, StepPipelineReordersAndFiltersDirectly) {
  // Unit-level: submit tasks whose eval cost is uneven and check
  // Finish() returns submission order with the right stages applied.
  StepFixture fixture;
  const FeatureSpace& space = fixture.space;
  StepPipelineConfig config;
  config.filter = StepFilter::kRandomDrop;

  runtime::SetGlobalThreads(4);
  {
    SearchStepPipeline pipeline(config, &space, &fixture.eval_service);
    Rng rng(7);
    for (size_t i = 0; i < 6; ++i) {
      StepTask task;
      task.group = i % space.num_groups();
      task.accept_group = task.group;
      StepAttempt attempt;
      attempt.action_index = i;
      auto candidate = space.GenerateCandidate(
          space.SampleRandomAction(task.group, &rng));
      if (candidate.ok()) {
        attempt.generated = true;
        attempt.candidate = std::move(candidate).ValueOrDie();
        attempt.forced_verdict = i % 2 == 0;  // Half pass the filter.
      }
      task.attempts.push_back(std::move(attempt));
      pipeline.Submit(std::move(task));
    }
    const std::vector<StepTask> tasks = pipeline.Finish().ValueOrDie();
    ASSERT_EQ(tasks.size(), 6u);
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(tasks[i].attempts.front().action_index, i);  // Order kept.
      const StepAttempt& attempt = tasks[i].attempts.front();
      if (attempt.generated && attempt.forced_verdict) {
        EXPECT_EQ(tasks[i].chosen, 0);
        EXPECT_TRUE(tasks[i].evaluated);
        EXPECT_TRUE(tasks[i].status.ok());
      } else {
        EXPECT_EQ(tasks[i].chosen, -1);
        EXPECT_FALSE(tasks[i].evaluated);
      }
    }
  }
  runtime::SetGlobalThreads(1);
}

}  // namespace
}  // namespace eafe::afe
