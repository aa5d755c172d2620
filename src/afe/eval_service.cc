#include "afe/eval_service.h"

#include <bit>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "hashing/minhash.h"

namespace eafe::afe {
namespace {

// FNV-1a over a string, folded into the running digest through MixHash so
// column order matters (column order affects per-split feature sampling,
// hence scores).
uint64_t HashString(uint64_t digest, uint64_t position,
                    const std::string& text) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001B3ULL;
  }
  return hashing::MixHash(digest, position, h);
}

uint64_t HashValues(uint64_t digest, uint64_t position,
                    const std::vector<double>& values) {
  uint64_t h = 0x84222325CBF29CE4ULL;
  for (double v : values) {
    h = (h ^ std::bit_cast<uint64_t>(v)) * 0x100000001B3ULL;
  }
  return hashing::MixHash(digest, position, h);
}

// One word per EvaluatorOptions field: enums by value, doubles by bit
// pattern, integers widened.
template <typename T>
uint64_t FieldWord(T value) {
  if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
    return static_cast<uint64_t>(value);
  } else {
    static_assert(std::is_same_v<T, double>,
                  "EvaluationSignature has no conversion for this field");
    return std::bit_cast<uint64_t>(value);
  }
}

}  // namespace

uint64_t EvaluationSignature(const data::Dataset& dataset,
                             const ml::EvaluatorOptions& options) {
  uint64_t digest = 0x45AF3A1E9C2D7B51ULL;
  uint64_t position = 0;
  std::apply(
      [&](const auto&... field) {
        ((digest = hashing::MixHash(digest, position++, FieldWord(field))),
         ...);
      },
      options.Fields());
  digest = hashing::MixHash(digest, position++,
                            static_cast<uint64_t>(dataset.task));
  digest = hashing::MixHash(digest, position++, dataset.num_rows());
  digest = HashValues(digest, position++, dataset.labels);
  for (size_t c = 0; c < dataset.features.num_columns(); ++c) {
    const data::Column& column = dataset.features.column(c);
    digest = HashString(digest, position++, column.name());
    digest = HashValues(digest, position++, column.values());
  }
  return digest;
}

EvalService::EvalService(const ml::TaskEvaluator* evaluator)
    : evaluator_(evaluator),
      metric_requests_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_requests_total",
          "Candidate evaluations requested (memo hits included)")),
      metric_cache_hits_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_cache_hits_total",
          "Evaluation requests served without a model fit")),
      metric_evaluations_(runtime::GlobalMetrics()->Counter(
          "eafe_eval_evaluations_total",
          "Model fits executed, one per distinct signature")) {}

Result<double> EvalService::ScoreDataset(const data::Dataset& dataset,
                                         const ml::FeatureBinner* frame_bins) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  metric_requests_->Increment();
  const uint64_t signature =
      EvaluationSignature(dataset, evaluator_->options());
  std::promise<Result<double>> first;
  std::shared_future<Result<double>> earlier;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [entry, inserted] = memo_.try_emplace(signature);
    if (inserted) {
      entry->second = first.get_future().share();
    } else {
      earlier = entry->second;
    }
  }
  if (earlier.valid()) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    metric_cache_hits_->Increment();
    return earlier.get();
  }
  // Scored outside the lock: requests for other signatures go on, and
  // requests for this one wait on `first`.
  metric_evaluations_->Increment();
  Result<double> score = evaluator_->Score(dataset, frame_bins);
  first.set_value(score);
  return score;
}

}  // namespace eafe::afe
