#ifndef EAFE_TESTS_HASHING_SELECTION_MEMO_TEST_UTIL_H_
#define EAFE_TESTS_HASHING_SELECTION_MEMO_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hashing/weighted_minhash.h"

namespace eafe::hashing {

/// Runs CCWS selections under keys seen once until every candidate list
/// an earlier test left in the process-wide selection memo has idled
/// out. A key seen once builds no list, so the memo ends with every list
/// slot free and the next recurring length gets a list.
inline void EmptySelectionMemo() {
  const std::vector<double> tiny = {1.0, 2.0};
  for (uint64_t i = 0; i < 2 * kCcwsIdleSelections; ++i) {
    (void)WeightedMinHashSelect(MinHashScheme::kCcws, tiny, 1,
                                0x5E1EC7ULL + i);
  }
  ASSERT_EQ(CcwsListsHeld(), 0u);
}

}  // namespace eafe::hashing

#endif  // EAFE_TESTS_HASHING_SELECTION_MEMO_TEST_UTIL_H_
