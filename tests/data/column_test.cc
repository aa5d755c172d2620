#include "data/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace eafe::data {
namespace {

TEST(ColumnTest, BasicAccess) {
  Column col("age", {1.0, 2.0, 3.0});
  EXPECT_EQ(col.name(), "age");
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.empty());
  EXPECT_DOUBLE_EQ(col[1], 2.0);
  col[1] = 5.0;
  EXPECT_DOUBLE_EQ(col[1], 5.0);
}

TEST(ColumnTest, Statistics) {
  Column col("x", {2.0, 4.0, 6.0, 8.0});
  EXPECT_DOUBLE_EQ(col.Min(), 2.0);
  EXPECT_DOUBLE_EQ(col.Max(), 8.0);
  EXPECT_DOUBLE_EQ(col.Mean(), 5.0);
  EXPECT_NEAR(col.StdDev(), std::sqrt(20.0 / 3.0), 1e-12);
}

TEST(ColumnTest, EmptyColumnStatistics) {
  Column col;
  EXPECT_TRUE(col.empty());
  EXPECT_TRUE(std::isinf(col.Min()));
  EXPECT_TRUE(std::isinf(col.Max()));
  EXPECT_DOUBLE_EQ(col.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(col.StdDev(), 0.0);
}

TEST(ColumnTest, NonFiniteDetectionAndRepair) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Column col("x", {1.0, nan, inf, -inf, 2.0});
  EXPECT_TRUE(col.HasNonFinite());
  EXPECT_EQ(col.ReplaceNonFinite(0.0), 3u);
  EXPECT_FALSE(col.HasNonFinite());
  EXPECT_DOUBLE_EQ(col[1], 0.0);
  EXPECT_DOUBLE_EQ(col[2], 0.0);
  EXPECT_DOUBLE_EQ(col[4], 2.0);
}

TEST(ColumnTest, CountDistinct) {
  Column col("x", {1.0, 2.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(col.CountDistinct(), 3u);
  Column constant("c", {5.0, 5.0, 5.0});
  EXPECT_EQ(constant.CountDistinct(), 1u);
}

// IsConstant is the early-exit form of CountDistinct() < 2, which stays
// as its oracle: the two must agree on every column, including the
// values where `==` and hashing are subtle.
TEST(ColumnTest, IsConstantMatchesCountDistinctOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> last_differs(1000, 3.0);
  last_differs.back() = std::nextafter(3.0, 4.0);
  const std::vector<std::vector<double>> cases = {
      {},
      {7.0},
      {nan},
      {0.0, -0.0, 0.0},
      {-0.0, 0.0},
      {nan, nan},
      {1.0, nan},
      {nan, 1.0, 1.0},
      {sub, sub, sub},
      {sub, 0.0},
      {sub, 2.0 * sub},
      {inf, inf},
      {inf, -inf},
      {5.0, 5.0, 5.0},
      std::vector<double>(1000, 3.0),
      last_differs,
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Column column("c", cases[i]);
    EXPECT_EQ(column.IsConstant(), column.CountDistinct() < 2)
        << "case " << i;
  }
  EXPECT_TRUE(Column("c", {0.0, -0.0}).IsConstant());
  EXPECT_FALSE(Column("c", {nan, nan}).IsConstant());
  EXPECT_TRUE(Column("c", {nan}).IsConstant());
  EXPECT_FALSE(Column("c", last_differs).IsConstant());
}

TEST(ColumnTest, Equality) {
  Column a("x", {1.0, 2.0});
  Column b("x", {1.0, 2.0});
  Column c("y", {1.0, 2.0});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(ColumnTest, Rename) {
  Column col("old", {1.0});
  col.set_name("new");
  EXPECT_EQ(col.name(), "new");
}

}  // namespace
}  // namespace eafe::data
