#include "data/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace eafe::data {
namespace {

TEST(CsvTest, ParsesWithHeader) {
  const DataFrame frame =
      ParseCsv("a,b\n1,2\n3,4\n").ValueOrDie();
  EXPECT_EQ(frame.num_rows(), 2u);
  EXPECT_EQ(frame.ColumnNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(frame.column(1)[1], 4.0);
}

TEST(CsvTest, ParsesWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  const DataFrame frame = ParseCsv("1,2\n3,4\n", options).ValueOrDie();
  EXPECT_EQ(frame.ColumnNames(), (std::vector<std::string>{"f0", "f1"}));
}

TEST(CsvTest, EmptyFieldBecomesNaN) {
  const DataFrame frame = ParseCsv("a,b\n1,\n2,3\n").ValueOrDie();
  EXPECT_TRUE(std::isnan(frame.column(1)[0]));
  EXPECT_DOUBLE_EQ(frame.column(1)[1], 3.0);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
}

TEST(CsvTest, RejectsNonNumeric) {
  EXPECT_FALSE(ParseCsv("a,b\n1,hello\n").ok());
}

TEST(CsvTest, SkipsBlankLinesAndCrLf) {
  const DataFrame frame =
      ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n").ValueOrDie();
  EXPECT_EQ(frame.num_rows(), 2u);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  const DataFrame frame = ParseCsv("a;b\n1;2\n", options).ValueOrDie();
  EXPECT_EQ(frame.num_columns(), 2u);
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/path.csv").status().code(),
            StatusCode::kIoError);
}

TEST(CsvTest, WriteReadRoundTrip) {
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column("x", {1.5, -2.25, 1e-9})).ok());
  ASSERT_TRUE(frame.AddColumn(Column("y", {3.0, 4.0, 5.0})).ok());
  const std::string path = testing::TempDir() + "/eafe_csv_test.csv";
  ASSERT_TRUE(WriteCsv(frame, path).ok());
  const DataFrame back = ReadCsv(path).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 3u);
  for (size_t c = 0; c < 2; ++c) {
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_DOUBLE_EQ(back.column(c)[r], frame.column(c)[r]);
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, SubnormalsRoundTripBitExact) {
  // strtod reports underflow for these; the reader must still take them.
  const std::vector<double> values = {4.9406564584124654e-324, 1e-310,
                                      -2.5e-320, 2.2250738585072014e-308};
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column("x", values)).ok());
  const std::string path = testing::TempDir() + "/eafe_csv_subnormal.csv";
  ASSERT_TRUE(WriteCsv(frame, path).ok());
  const Result<DataFrame> back = ReadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(back->column(0)[r]),
              std::bit_cast<uint64_t>(values[r]))
        << "row " << r;
  }
}

TEST(CsvTest, NaNRoundTripsAsEmpty) {
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(
      Column("x", {1.0, std::nan(""), 3.0})).ok());
  const std::string path = testing::TempDir() + "/eafe_csv_nan.csv";
  ASSERT_TRUE(WriteCsv(frame, path).ok());
  const DataFrame back = ReadCsv(path).ValueOrDie();
  EXPECT_TRUE(std::isnan(back.column(0)[1]));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadCsvDatasetSplitsLabel) {
  const std::string path = testing::TempDir() + "/eafe_csv_dataset.csv";
  {
    DataFrame frame;
    ASSERT_TRUE(frame.AddColumn(Column("f", {1, 2, 3, 4})).ok());
    ASSERT_TRUE(frame.AddColumn(Column("target", {0, 1, 0, 1})).ok());
    ASSERT_TRUE(WriteCsv(frame, path).ok());
  }
  const Dataset dataset =
      ReadCsvDataset(path, "target", TaskType::kClassification)
          .ValueOrDie();
  EXPECT_EQ(dataset.num_features(), 1u);
  EXPECT_EQ(dataset.labels, (std::vector<double>{0, 1, 0, 1}));
  EXPECT_FALSE(
      ReadCsvDataset(path, "missing", TaskType::kClassification).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eafe::data
