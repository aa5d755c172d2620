#ifndef EAFE_TESTS_ML_TEST_UTIL_H_
#define EAFE_TESTS_ML_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "data/dataframe.h"

namespace eafe::ml::testing {

/// Linearly separable binary classification data: label = x0 + x1 > 0.
inline data::Dataset MakeSeparable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n), x1(n), noise(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    x0[i] = rng.Normal();
    x1[i] = rng.Normal();
    noise[i] = rng.Normal();
    labels[i] = x0[i] + x1[i] > 0.0 ? 1.0 : 0.0;
  }
  data::Dataset dataset;
  dataset.name = "separable";
  dataset.task = data::TaskType::kClassification;
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x0", x0)).ok());
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x1", x1)).ok());
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("noise", noise)).ok());
  dataset.labels = labels;
  return dataset;
}

/// XOR-style data that linear models cannot separate but trees can:
/// label = (x0 > 0) != (x1 > 0).
inline data::Dataset MakeXor(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n), x1(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    x0[i] = rng.Uniform(-1.0, 1.0);
    x1[i] = rng.Uniform(-1.0, 1.0);
    labels[i] = (x0[i] > 0.0) != (x1[i] > 0.0) ? 1.0 : 0.0;
  }
  data::Dataset dataset;
  dataset.name = "xor";
  dataset.task = data::TaskType::kClassification;
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x0", x0)).ok());
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x1", x1)).ok());
  dataset.labels = labels;
  return dataset;
}

/// Smooth regression data: y = sin(2 x0) + 0.5 x1 + noise.
inline data::Dataset MakeSmoothRegression(size_t n, uint64_t seed,
                                          double noise_sd = 0.05) {
  Rng rng(seed);
  std::vector<double> x0(n), x1(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    x0[i] = rng.Uniform(-2.0, 2.0);
    x1[i] = rng.Uniform(-2.0, 2.0);
    labels[i] =
        std::sin(2.0 * x0[i]) + 0.5 * x1[i] + rng.Normal(0.0, noise_sd);
  }
  data::Dataset dataset;
  dataset.name = "smooth";
  dataset.task = data::TaskType::kRegression;
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x0", x0)).ok());
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x1", x1)).ok());
  dataset.labels = labels;
  return dataset;
}

/// Linear regression data: y = 2 x0 - x1 + 0.5.
inline data::Dataset MakeLinearRegression(size_t n, uint64_t seed,
                                          double noise_sd = 0.01) {
  Rng rng(seed);
  std::vector<double> x0(n), x1(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    x0[i] = rng.Normal();
    x1[i] = rng.Normal();
    labels[i] = 2.0 * x0[i] - x1[i] + 0.5 + rng.Normal(0.0, noise_sd);
  }
  data::Dataset dataset;
  dataset.name = "linear";
  dataset.task = data::TaskType::kRegression;
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x0", x0)).ok());
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x1", x1)).ok());
  dataset.labels = labels;
  return dataset;
}

/// Three-class Gaussian blobs at (-3,0), (3,0), (0,4).
inline data::Dataset MakeBlobs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n), x1(n), labels(n);
  const double cx[3] = {-3.0, 3.0, 0.0};
  const double cy[3] = {0.0, 0.0, 4.0};
  for (size_t i = 0; i < n; ++i) {
    const size_t cls = i % 3;
    x0[i] = cx[cls] + rng.Normal(0.0, 0.6);
    x1[i] = cy[cls] + rng.Normal(0.0, 0.6);
    labels[i] = static_cast<double>(cls);
  }
  data::Dataset dataset;
  dataset.name = "blobs";
  dataset.task = data::TaskType::kClassification;
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x0", x0)).ok());
  EXPECT_TRUE(dataset.features.AddColumn(data::Column("x1", x1)).ok());
  dataset.labels = labels;
  return dataset;
}

/// Wide binary-classification data (`columns` standard-normal columns,
/// label = w0 + w1 > 0), wide enough to cross the feature-parallel
/// histogram thresholds.
inline data::Dataset MakeWide(size_t n, size_t columns, uint64_t seed) {
  Rng rng(seed);
  data::Dataset dataset;
  dataset.name = "wide";
  dataset.task = data::TaskType::kClassification;
  std::vector<std::vector<double>> values(columns, std::vector<double>(n));
  dataset.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < columns; ++c) values[c][i] = rng.Normal();
    dataset.labels[i] = values[0][i] + values[1][i] > 0.0 ? 1.0 : 0.0;
  }
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(dataset.features
                    .AddColumn(data::Column("w" + std::to_string(c),
                                            std::move(values[c])))
                    .ok());
  }
  return dataset;
}

/// Label vectors over three rows whose last label is no class id: past
/// any int (3e9), or infinite. A classifier's Fit must reject each with
/// ExpectClassIdRejected.
inline std::vector<std::vector<double>> OutOfRangeClassLabels() {
  return {{0.0, 1.0, 3e9}, {0.0, 1.0, HUGE_VAL}};
}

/// The rejection of data::CheckClassId: InvalidArgument naming the bound.
inline void ExpectClassIdRejected(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("[0, 65536)"), std::string::npos)
      << status.ToString();
}

/// Fraction of matching integer predictions.
inline double LabelAccuracy(const std::vector<double>& truth,
                            const std::vector<double>& predicted) {
  size_t correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    correct += static_cast<int>(truth[i]) == static_cast<int>(predicted[i]);
  }
  return truth.empty() ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(truth.size());
}

}  // namespace eafe::ml::testing

#endif  // EAFE_TESTS_ML_TEST_UTIL_H_
