#include "simd/predict_kernels.h"

#include "simd/simd.h"

namespace eafe::simd {

void WalkRows(const PackedNode* nodes, const uint8_t* codes, size_t stride,
              uint32_t root, uint32_t steps, size_t n, uint32_t* leaves) {
  internal::CountDispatch(Kernel::kWalk, ActiveLevel());
  constexpr size_t kBlock = 8;
  size_t r = 0;
  // kBlock rows in flight: each step is a conditional move on the row's
  // code, and distinct rows' node loads are independent, so the walk
  // overlaps cache latency instead of serializing one dependent chain.
  // Rows on shallow leaves spend the spare steps in their self-loop.
  for (; r + kBlock <= n; r += kBlock) {
    const uint8_t* rows[kBlock];
    uint32_t cur[kBlock];
    for (size_t k = 0; k < kBlock; ++k) {
      rows[k] = codes + (r + k) * stride;
      cur[k] = root;
    }
    for (uint32_t d = 0; d < steps; ++d) {
      for (size_t k = 0; k < kBlock; ++k) {
        const PackedNode& nd = nodes[cur[k]];
        cur[k] = rows[k][static_cast<size_t>(nd.feature)] <= nd.split_bin
                     ? nd.left
                     : nd.right;
      }
    }
    for (size_t k = 0; k < kBlock; ++k) leaves[r + k] = cur[k];
  }
  for (; r < n; ++r) {
    const uint8_t* row = codes + r * stride;
    uint32_t cur = root;
    for (uint32_t d = 0; d < steps; ++d) {
      const PackedNode& nd = nodes[cur];
      cur = row[static_cast<size_t>(nd.feature)] <= nd.split_bin ? nd.left
                                                                 : nd.right;
    }
    leaves[r] = cur;
  }
}

}  // namespace eafe::simd
