#include "data/arff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

namespace eafe::data {
namespace {

constexpr char kSmallArff[] = R"(% A comment line
@relation weather

@attribute temperature NUMERIC
@attribute humidity REAL
@attribute windy {false, true}
@attribute play {no, yes}

@data
85, 85.5, false, no
80, 90, true, no
% mid-data comment
70, 96, false, yes
68, 80.2, true, yes
)";

TEST(ArffTest, ParsesNumericAndNominal) {
  const DataFrame frame = ParseArff(kSmallArff).ValueOrDie();
  EXPECT_EQ(frame.num_columns(), 4u);
  EXPECT_EQ(frame.num_rows(), 4u);
  EXPECT_EQ(frame.ColumnNames(),
            (std::vector<std::string>{"temperature", "humidity", "windy",
                                      "play"}));
  EXPECT_DOUBLE_EQ(frame.column(0)[0], 85.0);
  EXPECT_DOUBLE_EQ(frame.column(1)[3], 80.2);
  // Nominal encoding by declaration order: false=0, true=1; no=0, yes=1.
  EXPECT_DOUBLE_EQ(frame.column(2)[1], 1.0);
  EXPECT_DOUBLE_EQ(frame.column(3)[2], 1.0);
  EXPECT_DOUBLE_EQ(frame.column(3)[0], 0.0);
}

TEST(ArffTest, CaseInsensitiveKeywords) {
  const std::string text =
      "@RELATION r\n@ATTRIBUTE x numeric\n@ATTRIBUTE y numeric\n@DATA\n"
      "1, 2\n";
  const DataFrame frame = ParseArff(text).ValueOrDie();
  EXPECT_EQ(frame.num_rows(), 1u);
}

TEST(ArffTest, MissingValuesBecomeNaN) {
  const std::string text =
      "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n"
      "?, a\n1, ?\n";
  const DataFrame frame = ParseArff(text).ValueOrDie();
  EXPECT_TRUE(std::isnan(frame.column(0)[0]));
  EXPECT_TRUE(std::isnan(frame.column(1)[1]));
}

TEST(ArffTest, SubnormalLiteralsParse) {
  const std::string text =
      "@relation r\n@attribute x numeric\n@data\n"
      "4.9406564584124654e-324\n-2.5e-320\n";
  const Result<DataFrame> frame = ParseArff(text);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->column(0)[0], 4.9406564584124654e-324);
  EXPECT_EQ(frame->column(0)[1], -2.5e-320);
  EXPECT_FALSE(ParseArff("@relation r\n@attribute x numeric\n@data\n1e400\n")
                   .ok());
}

TEST(ArffTest, QuotedNamesAndValues) {
  const std::string text =
      "@relation r\n"
      "@attribute 'my col' numeric\n"
      "@attribute cls {'class a', 'class b'}\n"
      "@data\n"
      "3.5, 'class b'\n";
  const DataFrame frame = ParseArff(text).ValueOrDie();
  EXPECT_TRUE(frame.ColumnIndex("my col").ok());
  EXPECT_DOUBLE_EQ(frame.column(1)[0], 1.0);
}

TEST(ArffTest, RejectsUnknownCategory) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@attribute d numeric\n@data\n"
      "z, 0\n";
  EXPECT_FALSE(ParseArff(text).ok());
}

TEST(ArffTest, RejectsUnsupportedConstructs) {
  EXPECT_EQ(ParseArff("@relation r\n@attribute s string\n@data\nx\n")
                .status()
                .code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(ParseArff("@relation r\n@attribute x numeric\n@data\n{0 1}\n")
                .status()
                .code(),
            StatusCode::kNotImplemented);
}

TEST(ArffTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseArff("").ok());                       // No @data.
  EXPECT_FALSE(ParseArff("@data\n1\n").ok());             // No attributes.
  EXPECT_FALSE(
      ParseArff("@relation r\n@attribute x numeric\n@data\n1, 2\n").ok());
  EXPECT_FALSE(
      ParseArff("@relation r\n@attribute x\n@data\n1\n").ok());  // No type.
}

TEST(ArffTest, FileRoundTripAndDataset) {
  const std::string path = ::testing::TempDir() + "/eafe_test.arff";
  {
    std::ofstream out(path);
    out << kSmallArff;
  }
  const Dataset dataset =
      ReadArffDataset(path, "play", TaskType::kClassification)
          .ValueOrDie();
  EXPECT_EQ(dataset.num_features(), 3u);
  EXPECT_EQ(dataset.labels, (std::vector<double>{0, 0, 1, 1}));
  EXPECT_FALSE(
      ReadArffDataset(path, "absent", TaskType::kClassification).ok());
  std::remove(path.c_str());
  EXPECT_EQ(ReadArff(path).status().code(), StatusCode::kIoError);
}

TEST(ArffTest, LabelLookupIsCaseInsensitive) {
  const std::string path = ::testing::TempDir() + "/eafe_test2.arff";
  {
    std::ofstream out(path);
    out << kSmallArff;
  }
  EXPECT_TRUE(
      ReadArffDataset(path, "PLAY", TaskType::kClassification).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eafe::data
