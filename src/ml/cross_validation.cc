#include "ml/cross_validation.h"

#include <map>
#include <memory>
#include <utility>

#include "core/rng.h"
#include "data/split.h"
#include "ml/feature_binner.h"
#include "ml/metrics.h"
#include "runtime/thread_pool.h"

namespace eafe::ml {

Result<std::vector<double>> CrossValidateScores(
    const ModelFactory& factory, const data::Dataset& dataset,
    const CvOptions& options, const FeatureBinner* frame_bins) {
  EAFE_RETURN_NOT_OK(dataset.Validate());
  if (options.folds < 2) {
    return Status::InvalidArgument("cross-validation needs >= 2 folds");
  }
  Rng rng(options.seed);

  bool use_stratified = dataset.task == data::TaskType::kClassification;
  if (use_stratified) {
    std::map<int, size_t> class_counts;
    for (double label : dataset.labels) {
      ++class_counts[static_cast<int>(label)];
    }
    for (const auto& [cls, count] : class_counts) {
      (void)cls;
      if (count < options.folds) {
        use_stratified = false;
        break;
      }
    }
  }

  std::vector<data::Fold> folds;
  if (use_stratified) {
    EAFE_ASSIGN_OR_RETURN(
        folds,
        data::StratifiedKFoldIndices(dataset.labels, options.folds, &rng));
  } else {
    EAFE_ASSIGN_OR_RETURN(
        folds, data::KFoldIndices(dataset.num_rows(), options.folds, &rng));
  }

  // A tree learner (a SharedBinnerModel) trains through a shared
  // pre-binned frame: the frame is binned exactly once here, before the
  // fold fan-out, and every fold fits on a row-id view of the same codes
  // and scores its held-out rows by id — no fold materialization, no
  // per-fold re-binning. Given frame bins, only the columns past them are
  // binned. Other models take the materialized path below.
  std::shared_ptr<const FeatureBinner> shared_binner;
  {
    std::unique_ptr<Model> probe = factory();
    if (probe == nullptr) {
      return Status::Internal("model factory returned null");
    }
    if (dynamic_cast<const SharedBinnerModel*>(probe.get()) != nullptr) {
      if (frame_bins != nullptr) {
        EAFE_ASSIGN_OR_RETURN(FeatureBinner extended,
                              frame_bins->Extend(dataset.features));
        shared_binner =
            std::make_shared<const FeatureBinner>(std::move(extended));
      } else {
        EAFE_ASSIGN_OR_RETURN(shared_binner,
                              SharedBinnerModel::BinFrame(dataset.features));
      }
    }
  }

  // Folds are independent given the (serially drawn) index partition, so
  // they fan out across the global pool: each fold writes only its own
  // slot and errors are reported in fold order, keeping results identical
  // at any thread count. Model training inside a fold that parallelizes
  // through the same pool (e.g. per-tree forest fitting) runs inline on
  // the worker instead of oversubscribing.
  std::vector<double> scores(folds.size(), 0.0);
  std::vector<Status> statuses(folds.size());
  auto run_fold = [&](size_t i) -> Status {
    std::unique_ptr<Model> model = factory();
    if (model == nullptr) {
      return Status::Internal("model factory returned null");
    }
    SharedBinnerModel* shared =
        shared_binner != nullptr ? dynamic_cast<SharedBinnerModel*>(model.get())
                                 : nullptr;
    std::vector<double> predicted;
    std::vector<double> test_labels;
    if (shared != nullptr) {
      EAFE_RETURN_NOT_OK(
          shared->FitBinned(shared_binner, dataset.labels, folds[i].train));
      EAFE_ASSIGN_OR_RETURN(predicted,
                            shared->PredictBinnedRows(folds[i].test));
      test_labels.reserve(folds[i].test.size());
      for (size_t row : folds[i].test) {
        test_labels.push_back(dataset.labels[row]);
      }
    } else {
      const data::Dataset train = dataset.SelectRows(folds[i].train);
      const data::Dataset test = dataset.SelectRows(folds[i].test);
      EAFE_RETURN_NOT_OK(model->Fit(train.features, train.labels));
      EAFE_ASSIGN_OR_RETURN(predicted, model->Predict(test.features));
      test_labels = test.labels;
    }
    scores[i] = TaskScore(dataset.task, test_labels, predicted);
    return Status::OK();
  };
  runtime::ParallelFor(runtime::GlobalPool(), folds.size(),
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           statuses[i] = run_fold(i);
                         }
                       });
  for (const Status& status : statuses) {
    EAFE_RETURN_NOT_OK(status);
  }
  return scores;
}

Result<double> CrossValidateScore(const ModelFactory& factory,
                                  const data::Dataset& dataset,
                                  const CvOptions& options,
                                  const FeatureBinner* frame_bins) {
  EAFE_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      CrossValidateScores(factory, dataset, options, frame_bins));
  double sum = 0.0;
  for (double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

}  // namespace eafe::ml
