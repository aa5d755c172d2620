#include "data/dataframe.h"

#include <gtest/gtest.h>

#include <string>

namespace eafe::data {
namespace {

DataFrame MakeFrame() {
  DataFrame frame;
  EXPECT_TRUE(frame.AddColumn(Column("a", {1, 2, 3})).ok());
  EXPECT_TRUE(frame.AddColumn(Column("b", {4, 5, 6})).ok());
  return frame;
}

TEST(DataFrameTest, AddAndAccess) {
  DataFrame frame = MakeFrame();
  EXPECT_EQ(frame.num_rows(), 3u);
  EXPECT_EQ(frame.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(frame.column(1)[2], 6.0);
  EXPECT_EQ(frame.ColumnIndex("b").ValueOrDie(), 1u);
  EXPECT_EQ((*frame.ColumnByName("a"))->name(), "a");
  EXPECT_EQ(frame.ColumnNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(DataFrameTest, RejectsDuplicateName) {
  DataFrame frame = MakeFrame();
  const Status status = frame.AddColumn(Column("a", {7, 8, 9}));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(DataFrameTest, RejectsMismatchedLength) {
  DataFrame frame = MakeFrame();
  EXPECT_EQ(frame.AddColumn(Column("c", {1, 2})).code(),
            StatusCode::kInvalidArgument);
}

TEST(DataFrameTest, RejectsEmptyName) {
  DataFrame frame;
  EXPECT_FALSE(frame.AddColumn(Column("", {1})).ok());
}

TEST(DataFrameTest, MissingColumnIsNotFound) {
  DataFrame frame = MakeFrame();
  EXPECT_EQ(frame.ColumnIndex("zzz").status().code(), StatusCode::kNotFound);
}

TEST(DataFrameTest, DropColumnReindexes) {
  DataFrame frame = MakeFrame();
  ASSERT_TRUE(frame.AddColumn(Column("c", {7, 8, 9})).ok());
  ASSERT_TRUE(frame.DropColumn(0).ok());
  EXPECT_EQ(frame.num_columns(), 2u);
  EXPECT_EQ(frame.ColumnIndex("b").ValueOrDie(), 0u);
  EXPECT_EQ(frame.ColumnIndex("c").ValueOrDie(), 1u);
  EXPECT_FALSE(frame.ColumnIndex("a").ok());
  // Name can be reused after dropping.
  EXPECT_TRUE(frame.AddColumn(Column("a", {0, 0, 0})).ok());
}

TEST(DataFrameTest, DropByName) {
  DataFrame frame = MakeFrame();
  EXPECT_TRUE(frame.DropColumnByName("a").ok());
  EXPECT_FALSE(frame.DropColumnByName("a").ok());
  EXPECT_EQ(frame.num_columns(), 1u);
}

TEST(DataFrameTest, DropOutOfRange) {
  DataFrame frame = MakeFrame();
  EXPECT_EQ(frame.DropColumn(5).code(), StatusCode::kOutOfRange);
}

TEST(DataFrameTest, SelectRowsWithRepeats) {
  DataFrame frame = MakeFrame();
  const DataFrame sub = frame.SelectRows({2, 0, 2});
  EXPECT_EQ(sub.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(sub.column(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(sub.column(0)[1], 1.0);
  EXPECT_DOUBLE_EQ(sub.column(0)[2], 3.0);
}

TEST(DataFrameTest, SelectColumnsReorders) {
  DataFrame frame = MakeFrame();
  const DataFrame sub = frame.SelectColumns({1, 0});
  EXPECT_EQ(sub.ColumnNames(), (std::vector<std::string>{"b", "a"}));
}

TEST(DataFrameTest, MatrixRoundTrip) {
  DataFrame frame = MakeFrame();
  const Matrix m = frame.ToMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  const DataFrame back =
      DataFrame::FromMatrix(m, {"a", "b"}).ValueOrDie();
  EXPECT_TRUE(back == frame);
}

TEST(DataFrameTest, FromMatrixGeneratesNames) {
  const Matrix m = Matrix::FromRows({{1, 2}});
  const DataFrame frame = DataFrame::FromMatrix(m).ValueOrDie();
  EXPECT_EQ(frame.ColumnNames(), (std::vector<std::string>{"f0", "f1"}));
  EXPECT_FALSE(DataFrame::FromMatrix(m, {"only_one"}).ok());
}

TEST(DataFrameTest, CopyRow) {
  DataFrame frame = MakeFrame();
  std::vector<double> row;
  frame.CopyRow(1, &row);
  EXPECT_EQ(row, (std::vector<double>{2.0, 5.0}));
}

TEST(DatasetTest, ValidateAcceptsGoodDataset) {
  Dataset dataset;
  dataset.task = TaskType::kClassification;
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {1, 2, 3, 4})).ok());
  dataset.labels = {0, 1, 0, 1};
  EXPECT_TRUE(dataset.Validate().ok());
  EXPECT_EQ(dataset.NumClasses(), 2u);
}

TEST(DatasetTest, ValidateRejectsBadShapes) {
  Dataset dataset;
  dataset.labels = {0, 1};
  EXPECT_FALSE(dataset.Validate().ok());  // No features.
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {1, 2, 3})).ok());
  EXPECT_FALSE(dataset.Validate().ok());  // Length mismatch.
}

TEST(DatasetTest, ValidateRejectsNonIntegerClassLabels) {
  Dataset dataset;
  dataset.task = TaskType::kClassification;
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {1, 2})).ok());
  dataset.labels = {0.0, 0.5};
  EXPECT_FALSE(dataset.Validate().ok());
}

// Class ids stop below kMaxClasses (65536), the bound the flat vote
// buffers and the model loader share.
TEST(DatasetTest, ValidateBoundsClassIds) {
  Dataset dataset;
  dataset.task = TaskType::kClassification;
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {1, 2})).ok());
  dataset.labels = {0.0, 65535.0};
  EXPECT_TRUE(dataset.Validate().ok());
  dataset.labels = {0.0, 65536.0};
  const Status status = dataset.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("65536"), std::string::npos)
      << status.message();
  dataset.labels = {0.0, 3e9};
  EXPECT_FALSE(dataset.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsSingleClass) {
  Dataset dataset;
  dataset.task = TaskType::kClassification;
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {1, 2})).ok());
  dataset.labels = {1.0, 1.0};
  EXPECT_FALSE(dataset.Validate().ok());
}

TEST(DatasetTest, RegressionAllowsRealLabels) {
  Dataset dataset;
  dataset.task = TaskType::kRegression;
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {1, 2})).ok());
  dataset.labels = {0.1, -2.7};
  EXPECT_TRUE(dataset.Validate().ok());
  EXPECT_EQ(dataset.NumClasses(), 0u);
}

TEST(DatasetTest, SelectRowsKeepsAlignment) {
  Dataset dataset;
  dataset.task = TaskType::kRegression;
  ASSERT_TRUE(dataset.features.AddColumn(Column("x", {10, 20, 30})).ok());
  dataset.labels = {1, 2, 3};
  const Dataset sub = dataset.SelectRows({2, 0});
  EXPECT_DOUBLE_EQ(sub.features.column(0)[0], 30.0);
  EXPECT_DOUBLE_EQ(sub.labels[0], 3.0);
  EXPECT_DOUBLE_EQ(sub.labels[1], 1.0);
}

TEST(TaskTypeTest, ToString) {
  EXPECT_EQ(TaskTypeToString(TaskType::kClassification), "classification");
  EXPECT_EQ(TaskTypeToString(TaskType::kRegression), "regression");
}

}  // namespace
}  // namespace eafe::data
