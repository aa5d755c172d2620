// Public-API integration checks: the umbrella header compiles and the
// documented end-to-end flows (CSV in -> search -> CSV out; persisted
// FPE model -> search) work as the README describes.

#include "eafe.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

namespace eafe {
namespace {

TEST(ApiTest, CsvRoundTripThroughSearch) {
  // Write a dataset to CSV, read it back as the README shows, search it,
  // export the engineered table.
  data::MaterializeOptions mat;
  mat.max_samples = 150;
  mat.max_features = 5;
  const data::Dataset original =
      data::MakeTargetDatasetByName("hepatitis", mat).ValueOrDie();
  const std::string in_path = ::testing::TempDir() + "/eafe_api_in.csv";
  {
    data::DataFrame with_label = original.features;
    ASSERT_TRUE(with_label
                    .AddColumn(data::Column("label", original.labels))
                    .ok());
    ASSERT_TRUE(data::WriteCsv(with_label, in_path).ok());
  }

  const data::Dataset loaded =
      data::ReadCsvDataset(in_path, "label",
                           data::TaskType::kClassification)
          .ValueOrDie();
  EXPECT_EQ(loaded.num_rows(), original.num_rows());
  EXPECT_EQ(loaded.num_features(), original.num_features());

  afe::SearchOptions options;
  options.epochs = 2;
  options.steps_per_agent = 2;
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 4;
  afe::RandomSearch search(options);
  const auto result = search.Run(loaded).ValueOrDie();

  const std::string out_path = ::testing::TempDir() + "/eafe_api_out.csv";
  data::DataFrame engineered = result.best_dataset.features;
  ASSERT_TRUE(engineered
                  .AddColumn(data::Column("label",
                                          result.best_dataset.labels))
                  .ok());
  ASSERT_TRUE(data::WriteCsv(engineered, out_path).ok());
  const data::DataFrame reread = data::ReadCsv(out_path).ValueOrDie();
  EXPECT_EQ(reread.num_columns(), engineered.num_columns());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ApiTest, PersistedFpeModelDrivesSearch) {
  // The deployment flow: pretrain -> save -> load -> search.
  afe::FpePretrainingOptions pretrain;
  pretrain.trainer.dimensions = {16};
  pretrain.trainer.schemes = {hashing::MinHashScheme::kCcws};
  pretrain.trainer.evaluator.cv_folds = 3;
  pretrain.trainer.evaluator.rf_trees = 4;
  pretrain.generated_per_dataset = 6;
  const auto trained =
      afe::PretrainFpe(data::MakePublicCollection(4, 0.6, 55), pretrain)
          .ValueOrDie();

  const std::string path = ::testing::TempDir() + "/eafe_api_model.eafe";
  ASSERT_TRUE(serve::SaveModel(trained.model, path).ok());
  serve::LoadedModel container = serve::LoadModel(path).ValueOrDie();
  ASSERT_EQ(container.kind, serve::ModelKind::kFpe);
  ASSERT_TRUE(container.fpe.has_value());
  const fpe::FpeModel loaded = std::move(*container.fpe);

  data::MaterializeOptions mat;
  mat.max_samples = 150;
  mat.max_features = 5;
  const data::Dataset target =
      data::MakeTargetDatasetByName("diabetes", mat).ValueOrDie();
  afe::EafeSearch::Options options;
  options.search.epochs = 2;
  options.search.steps_per_agent = 2;
  options.search.evaluator.cv_folds = 3;
  options.search.evaluator.rf_trees = 4;
  options.stage1_epochs = 2;
  options.fpe_model = &loaded;
  afe::EafeSearch search(options);
  const auto from_loaded = search.Run(target).ValueOrDie();

  // Identical to running with the in-memory model.
  options.fpe_model = &trained.model;
  afe::EafeSearch in_memory(options);
  const auto from_memory = in_memory.Run(target).ValueOrDie();
  EXPECT_DOUBLE_EQ(from_loaded.best_score, from_memory.best_score);
  EXPECT_EQ(from_loaded.downstream_evaluations,
            from_memory.downstream_evaluations);
  std::remove(path.c_str());
}

TEST(ApiTest, PreselectionFeedsSearch) {
  // The paper's wide-dataset protocol: RF-importance pre-selection, then
  // AFE on the reduced table.
  data::SyntheticSpec spec;
  spec.num_samples = 150;
  spec.num_features = 30;
  spec.num_informative = 3;
  spec.seed = 77;
  const data::Dataset wide = data::MakeSynthetic(spec).ValueOrDie();
  ml::PreselectOptions preselect;
  preselect.max_features = 6;
  const data::Dataset narrow =
      ml::PreselectFeatures(wide, preselect).ValueOrDie();
  EXPECT_EQ(narrow.num_features(), 6u);

  afe::SearchOptions options;
  options.epochs = 2;
  options.steps_per_agent = 2;
  options.evaluator.cv_folds = 3;
  options.evaluator.rf_trees = 4;
  afe::NfsSearch search(options);
  EXPECT_TRUE(search.Run(narrow).ok());
}

}  // namespace
}  // namespace eafe
