#ifndef EAFE_TESTS_FPE_FPE_TEST_UTIL_H_
#define EAFE_TESTS_FPE_FPE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/string_util.h"
#include "data/dataframe.h"
#include "fpe/fpe_model.h"

namespace eafe::fpe::testing {

/// P(effective) through the logistic head's frame path: a one-row frame
/// of the compressed signature, one named column per input value, fed to
/// the head's PredictProba. FpeModel::PredictProbability must return
/// these bits.
inline double FramePathProbability(const FpeModel& model,
                                   const std::vector<double>& values) {
  const std::vector<double> input =
      model.compressor().Compress(values).ValueOrDie();
  data::DataFrame frame;
  for (size_t j = 0; j < input.size(); ++j) {
    EXPECT_TRUE(frame
                    .AddColumn(data::Column(StrFormat("s%zu", j),
                                            std::vector<double>{input[j]}))
                    .ok());
  }
  return model.logistic_classifier().PredictProba(frame).ValueOrDie()[0];
}

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace eafe::fpe::testing

#endif  // EAFE_TESTS_FPE_FPE_TEST_UTIL_H_
